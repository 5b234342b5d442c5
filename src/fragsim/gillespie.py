"""Event-driven sampler for the fragmentation depth census.

Fragments of equal depth are exchangeable and each splits at rate q^depth,
so the vector of per-depth counts is itself Markov: the total rate is
R = sum_d counts[d] * q^d, waiting times are exponential with rate R, and
the splitting depth is chosen proportionally to counts[d] * q^d. One split
at depth d removes one fragment there and adds k at depth d+1, which
conserves total mass exactly (counts[d] * k^-d sums to 1 in integer
arithmetic over the common denominator k^max_depth).

Sampling contract: each event consumes two uniforms from the replica stream,
the inverse-CDF waiting time's and then the depth choice's. They come in
blocks of 4096 events, and the incrementally updated total rate is re-summed
exactly at the end of every full block, and after any event that leaves it
below the split fragment's old rate, so runs are bit-reproducible given a
SeedSpec. Continuous event times make ties measure-zero; if equal floats
ever occur, events keep draw order.

The loop is arranged for speed without changing a draw or a rounding: a
block's waiting-time logs come from one lazy ``map(math.log, ...)`` over
``1 - u`` (exactly rounded in NumPy as in Python), the depth scan stops on an
infinite sentinel one slot past the deepest depth and is then clamped to it,
and a split adds its depth's precomputed rate step k q^(d+1) - q^d, the
float that the update computed inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import ensure_within_budget
from .errors import DomainError, check_real
from .params import ModelParams
from .predictors import smallest_depth_center
from .seeds import SeedSpec

# Events per exact total-rate refresh; the incremental rate drifts by O(eps)
# per event, which is harmless but unbounded over millions of events. An event
# takes two uniforms, so one uniform block is one refresh period.
_RATE_REFRESH = 4096
_UNIFORM_BLOCK = 2 * _RATE_REFRESH
# Upper estimates of CPython object sizes. Per listed uniform: its list slot
# and a float object (24 B, 32 B after pymalloc's rounding). Per depth:
# counts, qpow, weights and delta entries and the census copy. Per record:
# the times/mins/maxs entries and their array elements.
_BYTES_PER_LISTED_UNIFORM = 40
_BYTES_PER_DEPTH = 512
_BYTES_PER_RECORD = 96


@dataclass(frozen=True)
class DepthCensus:
    """Per-depth fragment counts at the horizon, occupied depths only.

    The times at which depths appear and vanish are in the trajectory's
    records: M rises by one at each new depth and m by one at each emptied
    depth, so depth d is first reached at the first record with
    max_depths == d, and depth n < m(t_end) last exists until the first
    record with min_depths > n.
    """

    counts: dict[int, int]


@dataclass(frozen=True)
class GillespieTrajectory:
    """Jump-time records of the extreme occupied depths.

    times[i] is the instant at which (m, M) changed to
    (min_depths[i], max_depths[i]); records are right-continuous.
    """

    t_end: float
    times: np.ndarray
    min_depths: np.ndarray
    max_depths: np.ndarray
    census: DepthCensus

    def value_at(self, t: float) -> tuple[int, int]:
        check_real("t", t, least=0.0)
        if t > self.t_end:
            raise DomainError(f"t={t!r} outside the simulated horizon")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.min_depths[i]), int(self.max_depths[i])


def _projected_depth(params: ModelParams, t_end: float) -> int:
    """Deepest depth a run to t_end is charged for: one past the
    smallest-fragment predictor's center."""
    if t_end > math.e * 1.01:
        return max(1, math.ceil(smallest_depth_center(params, t_end)) + 1)
    return 1


def _projected_bytes(params: ModelParams, t_end: float) -> int:
    # What the run holds: the float64 uniform block, its 1 - u half and two
    # lists of _RATE_REFRESH Python floats, the waiting-time and the depth
    # uniforms (both lists are freed when the block ends, before the next
    # block is drawn), the per-depth lists and dicts, and one record per
    # change of m or M, so at most 2*depth + 1 records.
    depth = _projected_depth(params, t_end)
    return (
        8 * _UNIFORM_BLOCK
        + (2 * _BYTES_PER_LISTED_UNIFORM + 8) * _RATE_REFRESH
        + _BYTES_PER_DEPTH * depth
        + _BYTES_PER_RECORD * (2 * depth + 1)
    )


def gillespie_run(params: ModelParams, t_end: float, seed: SeedSpec) -> GillespieTrajectory:
    """Exact continuous-time simulation of the depth census up to t_end:
    the trajectory records (m, M) at 0 and at every event that changes it,
    and the census is the counts at t_end."""
    check_real("t_end", t_end, positive=True)
    ensure_within_budget(
        _projected_bytes(params, t_end), f"gillespie run to t={t_end}"
    )
    k, q = params.k, params.q
    rng = seed.rng()

    # weights[d] = counts[d] * q^d, with an infinite sentinel one slot past
    # the deepest depth that stops the depth scan; delta[d] = k q^(d+1) - q^d
    # is the rate step of a split at depth d
    counts = [1]
    qpow = [1.0]
    weights = [1.0, math.inf]
    delta = []
    total_rate = 1.0
    m_cur = 0
    max_cur = 0
    t = 0.0

    times = [0.0]
    mins = [0]
    maxs = [0]

    log, fsum = math.log, math.fsum

    while True:
        # Python floats: the same IEEE arithmetic as float64 scalars, cheaper.
        # Event i takes uniform 2i for its waiting time and 2i + 1 for its
        # depth; 1 - u rounds alike in NumPy, and the logs are taken lazily.
        u = rng.random(_UNIFORM_BLOCK)
        logs = map(log, (1.0 - u[0::2]).tolist())
        for log_u, u_depth in zip(logs, u[1::2].tolist()):
            # t + (-log(1 - u) / R), bit for bit: IEEE negation commutes
            # with the division, and a + (-b) == a - b
            t -= log_u / total_rate
            if t > t_end:
                break

            # Depth choice proportional to counts[d] * q^d, scanned from the
            # top; rounding of the incremental rate can leave acc < x at the
            # deepest depth, where the sentinel stops the scan
            x = u_depth * total_rate
            d = m_cur
            acc = weights[d]
            while acc < x:
                d += 1
                acc += weights[d]
            if d > max_cur:
                d = max_cur

            c = counts[d] - 1
            counts[d] = c
            q_d = qpow[d]
            weights[d] = c * q_d
            if d < max_cur:
                child = d + 1
                c_child = counts[child] + k
                counts[child] = c_child
                weights[child] = c_child * qpow[child]
                total_rate += delta[d]
                if total_rate < q_d:
                    # k q^(d+1) << q^d (alpha > 1): the update cancelled, so
                    # the rate may have lost all its digits; never taken at
                    # alpha <= 1
                    total_rate = fsum(weights[m_cur : max_cur + 1])
                if d == m_cur and c == 0:
                    m_cur += 1  # this split has just put k fragments at depth d + 1
                    times.append(t)
                    mins.append(m_cur)
                    maxs.append(max_cur)
            else:  # a new depth: the sentinel moves one slot deeper
                q_child = q_d * q
                counts.append(k)
                qpow.append(q_child)
                weights[-1] = k * q_child
                weights.append(math.inf)
                delta.append(k * q_child - q_d)
                max_cur += 1
                total_rate += delta[d]
                if total_rate < q_d:
                    total_rate = fsum(weights[m_cur : max_cur + 1])
                if d == m_cur and c == 0:
                    m_cur += 1
                times.append(t)
                mins.append(m_cur)
                maxs.append(max_cur)
        else:  # a full block: _RATE_REFRESH events
            total_rate = fsum(weights[m_cur : max_cur + 1])
            continue
        break

    census = DepthCensus(counts={d: c for d, c in enumerate(counts) if c > 0})
    return GillespieTrajectory(
        t_end=t_end,
        times=np.asarray(times, dtype=float),
        min_depths=np.asarray(mins, dtype=np.int64),
        max_depths=np.asarray(maxs, dtype=np.int64),
        census=census,
    )
