import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fragsim.errors import BudgetError, DomainError
from fragsim.gillespie import (
    _UNIFORM_BLOCK,
    _projected_bytes,
    _projected_depth,
    gillespie_run,
)
from fragsim.params import ModelParams
from fragsim.seeds import SeedSpec

P21 = ModelParams(2, 1.0)
P32 = ModelParams(3, 0.6)


def test_initial_state_recorded():
    traj = gillespie_run(P21, 0.5, SeedSpec(0, 0))
    assert traj.times[0] == 0.0
    assert traj.min_depths[0] == 0 and traj.max_depths[0] == 0


def test_first_event_time_is_standard_exponential_draw():
    # the root fragment splits at rate q^0 = 1; the first event time must be
    # the inverse-CDF transform of the stream's first uniform
    seed = SeedSpec(42, 0)
    u = seed.rng().random(8192)[0]
    expected = -math.log(1.0 - u)
    traj = gillespie_run(P21, expected + 1.0, seed)
    assert traj.times[1] == pytest.approx(expected, rel=1e-15)


def test_determinism():
    a = gillespie_run(P32, 50.0, SeedSpec(5, 7))
    b = gillespie_run(P32, 50.0, SeedSpec(5, 7))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.min_depths, b.min_depths)
    assert np.array_equal(a.max_depths, b.max_depths)
    assert a.census.counts == b.census.counts


def _trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(traj.times, dtype="<f8").tobytes())
    h.update(np.asarray(traj.min_depths, dtype="<i8").tobytes())
    h.update(np.asarray(traj.max_depths, dtype="<i8").tobytes())
    h.update(repr(sorted(traj.census.counts.items())).encode())
    return h.hexdigest()


# Recorded before the event loop moved to Python floats; any change to how the
# engine consumes or combines its uniforms changes these digests.
@pytest.mark.parametrize("params,t_end,seed,digest", [
    (P21, math.e**9, SeedSpec(0, 0),
     "e4311067486530441a47ea65ab5ac07ad1ace0025cad5a6ff74a9930e4492bbd"),
    # 59,831 events in 15 uniform blocks; with q = 1/2 every weight is dyadic,
    # so the incremental rate is exact and its refreshes change nothing
    (P21, math.e**11, SeedSpec(42, 0),
     "9219dda4105771befbbb6095e6234b4c1808334a438b3dcbacc61e595428ad7f"),
    (P32, 50.0, SeedSpec(5, 7),
     "c24f08da4dfeb2291aa94fefc8384e12c1857f45d64d8abb1b8eea0d40233394"),
    # 55,496 events: 13 refreshes, each of which moves the rate's last bits
    (P32, 1000.0, SeedSpec(1, 0),
     "3a852471a59b04d5e8b3e2482a682f4cee8f4bb87498949e4d05476b54332061"),
    (ModelParams(3, 0.5), math.e**4, SeedSpec(3, 1),
     "c47d5f28f52cc761b61da156cd42bd936221531bba0a7ba95971e3098567ecc6"),
    # 26,378 events at k q = 0.87 < 1, where every split lowers the rate;
    # recorded with the event loop as it stood before its sentinel depth scan,
    # per-depth rate steps and per-block log pass
    (ModelParams(2, 1.2), math.e**12, SeedSpec(42, 0),
     "e3f04bba9f7001ac9e99c35e92f60879e3896b61288a87803b3ebf01188895da"),
], ids=["P21-e9", "P21-e11", "P32-50", "P32-1000", "P305-e4", "P212-e12"])
def test_draws_pinned(params, t_end, seed, digest):
    assert _trajectory_digest(gillespie_run(params, t_end, seed)) == digest


def test_rate_survives_cancellation_at_large_alpha():
    # k q = 5^-99: the incremental update 1 + 5q - 1 cancelled to a rate of 0
    traj = gillespie_run(ModelParams(5, 100.0), math.e**20, SeedSpec(1, 0))
    assert traj.census.counts == {1: 5}
    assert list(traj.max_depths) == [0, 1]


def test_second_waiting_time_at_large_alpha():
    # after the root splits, the rate is k q exactly: three fragments at q
    params, seed = ModelParams(3, 30.0), SeedSpec(4, 0)
    u = seed.rng().random(_UNIFORM_BLOCK)
    traj = gillespie_run(params, 1e15, seed)
    assert list(traj.max_depths[:3]) == [0, 1, 2]
    expected = -math.log(1.0 - u[2]) / (params.k * params.q)
    assert traj.times[2] - traj.times[1] == pytest.approx(expected, rel=1e-12)


def test_projected_depth_covers_observed_at_large_alpha():
    # the smallest-depth center lies below the largest one here (0.862
    # against 0.910), yet one past its ceiling still covers every run
    params, t_end = ModelParams(3, 20.0), math.e**20
    observed = max(
        int(gillespie_run(params, t_end, SeedSpec(0, r)).max_depths[-1]) for r in range(50)
    )
    assert observed == 2
    assert _projected_depth(params, t_end) >= observed


def _runs_after_every_event(params, seed):
    """Map each event count n of the run to t=30 to a run of the same stream
    that ends after exactly its first n events.

    A run to t ends on the state after its last event at or before t, so
    bisecting the horizon between two runs whose event counts differ by more
    than one reaches the state after every event."""
    k, seed = params.k, SeedSpec(seed, 0)
    runs = {}

    def events_by(t):
        traj = gillespie_run(params, t, seed)
        events = (sum(traj.census.counts.values()) - 1) // (k - 1)  # each adds k - 1
        runs[events] = traj
        return events

    spans = [(0.0, -1, 30.0, events_by(30.0))]
    while spans:
        lo, n_lo, hi, n_hi = spans.pop()
        if n_hi - n_lo > 1:
            mid = (lo + hi) / 2
            assert lo < mid < hi, "two events at one float time"
            n_mid = events_by(mid)
            spans += [(lo, n_lo, mid, n_mid), (mid, n_mid, hi, n_hi)]
    assert sorted(runs) == list(range(len(runs))) and len(runs) > 1
    return runs


@pytest.mark.parametrize("params,seed", [(P21, 3), (P32, 4)])
def test_mass_conserved_exactly_at_every_event(params, seed):
    k = params.k
    for traj in _runs_after_every_event(params, seed).values():
        assert sum(Fraction(c, k**d) for d, c in traj.census.counts.items()) == 1


@pytest.mark.parametrize("params,seed", [(P21, 3), (P32, 4)])
def test_extreme_depths_match_census_at_every_event(params, seed):
    # the engine steps the smallest depth by one when a split empties it,
    # without looking at the census; after every event it must still be the
    # smallest occupied depth, and the largest depth the largest occupied one
    for events, traj in _runs_after_every_event(params, seed).items():
        occupied = sorted(traj.census.counts)
        assert (traj.min_depths[-1], traj.max_depths[-1]) == (occupied[0], occupied[-1]), events


def test_extreme_depths_monotone_and_ordered():
    # each depth steps by 0 or 1: a split adds only the depth below its own,
    # and the split that empties depth m fills depth m+1
    traj = gillespie_run(P21, 200.0, SeedSpec(6, 0))
    assert set(np.diff(traj.min_depths)) <= {0, 1}
    assert set(np.diff(traj.max_depths)) <= {0, 1}
    assert (traj.min_depths <= traj.max_depths).all()
    assert (np.diff(traj.times) > 0).all()


def test_value_at_is_right_continuous():
    traj = gillespie_run(P21, 100.0, SeedSpec(9, 0))
    i = len(traj.times) // 2
    t_jump = float(traj.times[i])
    assert traj.value_at(t_jump) == (int(traj.min_depths[i]), int(traj.max_depths[i]))
    before = traj.value_at(t_jump - 1e-9)
    assert before == (int(traj.min_depths[i - 1]), int(traj.max_depths[i - 1]))
    with pytest.raises(DomainError):
        traj.value_at(traj.t_end + 1.0)


def test_census_consistency():
    traj = gillespie_run(P21, 150.0, SeedSpec(12, 0))
    occupied = sorted(traj.census.counts)
    m_final, max_final = traj.value_at(traj.t_end)
    assert occupied[0] == m_final and occupied[-1] == max_final
    # every depth up to the final maximum is reached, and every one below the
    # final minimum emptied, at a recorded time within the horizon
    assert sorted(set(traj.max_depths.tolist())) == list(range(max_final + 1))
    assert sorted(set(traj.min_depths.tolist())) == list(range(m_final + 1))
    assert traj.times[-1] <= traj.t_end


def test_depth_counts_positive_and_bounded():
    traj = gillespie_run(P32, 80.0, SeedSpec(13, 0))
    for d, c in traj.census.counts.items():
        assert 0 < c <= P32.k**d


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "100")
    with pytest.raises(BudgetError):
        gillespie_run(P21, math.e**12, SeedSpec(0, 0))


def test_budget_charges_held_state(monkeypatch):
    # the run holds O(depth) state, so 1 MB admits t=e^9; charging
    # 8 * k^depth bytes (about 4 MB here) refused it
    monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000000")
    traj = gillespie_run(P21, math.e**9, SeedSpec(0, 0))
    assert traj.t_end == math.e**9
    assert len(traj.times) <= 2 * traj.max_depths[-1] + 1


def test_budget_charges_listed_uniform_blocks():
    # a block holds its float64 array, the array's 1 - u half and two lists
    # of half a block of Python floats: the waiting-time and the depth uniforms
    block = SeedSpec(0, 0).rng().random(_UNIFORM_BLOCK)
    half = 1.0 - block[0::2]
    held = block.nbytes + half.nbytes
    for listed in (half.tolist(), block[1::2].tolist()):
        held += sys.getsizeof(listed) + sum(map(sys.getsizeof, listed))
    assert _projected_bytes(P21, 0.5) >= held


def test_projection_covers_traced_peak():
    # 8,144 events: two uniform blocks, so one block is replaced
    gillespie_run(P21, 1.0, SeedSpec(0, 0))  # first-call allocations untraced
    tracemalloc.start()
    try:
        gillespie_run(P21, math.e**9, SeedSpec(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _projected_bytes(P21, math.e**9) >= peak


def test_domain():
    with pytest.raises(DomainError):
        gillespie_run(P21, -1.0, SeedSpec(0, 0))
    with pytest.raises(DomainError):
        gillespie_run(P21, math.inf, SeedSpec(0, 0))


@pytest.mark.parametrize("t_end", [10**400, True])
def test_t_end_refuses_huge_int_and_bool(t_end):
    # 10**400 has no float, and True is not a horizon of 1
    with pytest.raises(DomainError, match="t_end"):
        gillespie_run(P21, t_end, SeedSpec(0, 0))
