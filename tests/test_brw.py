import hashlib
import json
import math

import numpy as np
import pytest

from fragsim.brw import (
    block_rows,
    brw_frames,
    brw_sweep,
    kmin_kmax_sweep,
    spine_sample,
    spine_sum_samples,
    sweep_replicas,
    tree_matrices,
)
from fragsim.cli import main
from fragsim.errors import BudgetError, DomainError
from fragsim.experiment import read_record_files
from fragsim.laws import split_time_survival
from fragsim.params import ModelParams
from fragsim.seeds import SeedSpec, stream_seed
from oracles import brw_frames_oracle, brw_summary_oracle, tree_matrices_oracle

P21 = ModelParams(2, 1.0)
P31 = ModelParams(3, 0.7)


class TestSeeding:
    def test_stream_seed_is_pure_and_documented_mix(self):
        mask = (1 << 64) - 1
        z = (42 + (0 + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        assert stream_seed(42, 0) == z ^ (z >> 31)

    def test_distinct_replicas_get_distinct_streams(self):
        seeds = {stream_seed(42, r) for r in range(10_000)}
        assert len(seeds) == 10_000

    def test_seedspec_validation(self):
        with pytest.raises(DomainError):
            SeedSpec(-1, 0)
        with pytest.raises(DomainError):
            SeedSpec(0, -2)


class TestBrwSweep:
    def test_root_generation(self):
        summaries = brw_sweep(P21, 0, SeedSpec(42, 0))
        assert len(summaries) == 1
        s = summaries[0]
        assert s.k_min == s.k_max == s.tau
        assert s.k_min > 0
        # the root value is the stream's first standard exponential
        expected = SeedSpec(42, 0).rng().standard_exponential(1)[0]
        assert s.k_min == expected

    def test_deterministic(self):
        a = brw_sweep(P31, 4, SeedSpec(9, 3))
        b = brw_sweep(P31, 4, SeedSpec(9, 3))
        for x, y in zip(a, b):
            assert x.k_min == y.k_min and x.k_max == y.k_max and x.tau == y.tau
            assert np.array_equal(x.points_above, y.points_above)

    def test_child_increments_positive(self):
        frames = list(brw_frames(P31, 4, SeedSpec(1, 0)))
        for parent, child in zip(frames, frames[1:]):
            inc = child.values - P31.q * np.repeat(parent.values, P31.k)
            assert (inc > 0).all()

    def test_frames_are_independent_copies(self):
        frames = list(brw_frames(P31, 5, SeedSpec(6, 2)))
        oracle = brw_frames_oracle(P31.k, P31.q, 5, SeedSpec(6, 2).rng())
        for i, frame in enumerate(frames):
            assert np.array_equal(frame.values, oracle[i])
            assert not any(np.shares_memory(frame.values, f.values) for f in frames[:i])

    def test_frame_sizes_and_extremes(self):
        for frame in brw_frames(P21, 6, SeedSpec(5, 1)):
            assert frame.values.size == 2**frame.n
            assert (frame.values > 0).all()

    def test_tau_definition(self):
        for s in brw_sweep(P21, 5, SeedSpec(3, 2)):
            assert s.tau == s.k_max - P21.gamma * s.n
            assert s.k_min <= s.k_max

    def test_points_floor(self):
        for s in brw_sweep(P21, 8, SeedSpec(4, 0), floor=-2.0):
            assert (s.points_above >= -2.0).all()
            assert (np.diff(s.points_above) >= 0).all()

    def test_budget_guard_before_allocation(self, monkeypatch):
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000")
        with pytest.raises(BudgetError) as err:
            brw_sweep(P21, 24, SeedSpec(0, 0))
        assert err.value.required_bytes == 8 * (2**24 + 2**23)

    def test_domain(self):
        with pytest.raises(DomainError):
            brw_sweep(P21, -1, SeedSpec(0, 0))


class TestKminKmaxSweep:
    def test_shape_and_order(self):
        rec = kmin_kmax_sweep(P21, 3, 5, master_seed=7)
        assert rec.shape == (5 * 4,)
        assert list(rec["replica"][:4]) == [0, 0, 0, 0]
        assert list(rec["n"][:4]) == [0, 1, 2, 3]

    def test_matches_single_sweeps(self):
        rec = kmin_kmax_sweep(P21, 3, 2, master_seed=11)
        direct = brw_sweep(P21, 3, SeedSpec(11, 1))
        rows = rec[rec["replica"] == 1]
        for row, s in zip(rows, direct):
            assert row["k_min"] == s.k_min
            assert row["tau"] == s.tau

    def test_root_has_equal_extremes(self):
        rec = kmin_kmax_sweep(P21, 2, 4, master_seed=1)
        roots = rec[rec["n"] == 0]
        assert (roots["k_min"] == roots["k_max"]).all()


def _replica_bytes(k, n_max):
    return 8 * (k**n_max + k ** max(n_max - 1, 0))


class TestKernelParity:
    """The replica-batched kernel against the frame-by-frame oracle, across
    block edges: every value must be equal, not close."""

    @pytest.mark.parametrize("n_max", [0, 1, 8, 13])
    @pytest.mark.parametrize("params", [P21, P31], ids=["k2", "k3"])
    def test_blocks_match_oracle(self, params, n_max, monkeypatch):
        if n_max <= 1:
            # the default block here holds tens of thousands of replicas; a
            # budget of 7 replicas puts its edges within cheap reach
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(7 * _replica_bytes(params.k, n_max)))
        rows = block_rows(params.k, n_max)
        counts = [c for c in (rows - 1, rows, rows + 1) if c > 0]
        seeds = [SeedSpec(31, r) for r in range(max(counts))]
        frames = [brw_frames_oracle(params.k, params.q, n_max, s.rng()) for s in seeds]
        for floor in (-5.0, 0.0, math.inf):
            expected = [
                [brw_summary_oracle(f, n, params.gamma, floor) for n, f in enumerate(fs)]
                for fs in frames
            ]
            for count in counts:
                sweep = sweep_replicas(params, n_max, seeds[:count], floor, range(n_max + 1))
                assert sweep.k_min.shape == (count, n_max + 1)
                for r in range(count):
                    for n, (k_min, k_max, tau, points) in enumerate(expected[r]):
                        assert sweep.k_min[r, n] == k_min
                        assert sweep.k_max[r, n] == k_max
                        assert sweep.tau[r, n] == tau
                        assert np.array_equal(sweep.points[n][r], points)
                        assert sweep.points[n][r].dtype == points.dtype

    def test_points_only_where_asked(self):
        seeds = [SeedSpec(2, r) for r in range(3)]
        sweep = sweep_replicas(P21, 6, seeds, point_generations=(4, 6))
        assert sorted(sweep.points) == [4, 6]
        assert all(len(sweep.points[n]) == 3 for n in (4, 6))

    def test_single_seed_sweep_is_a_row_of_the_block(self):
        seeds = [SeedSpec(8, r) for r in range(block_rows(2, 8) + 1)]
        block = sweep_replicas(P21, 8, seeds, point_generations=(8,))
        last = brw_sweep(P21, 8, seeds[-1])
        assert [s.tau for s in last] == block.tau[-1].tolist()
        assert np.array_equal(last[8].points_above, block.points[8][-1])

    def test_block_size(self):
        assert [block_rows(2, n) for n in (8, 12, 13, 16, 20)] == [341, 21, 10, 1, 1]

    def test_budget_shrinks_the_block(self, monkeypatch):
        full = kmin_kmax_sweep(P21, 8, 7, master_seed=5)
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(3 * _replica_bytes(2, 8)))
        assert block_rows(2, 8) == 3
        shrunk = kmin_kmax_sweep(P21, 8, 7, master_seed=5)
        assert shrunk.tobytes() == full.tobytes()

    def test_simulate_csv_digest(self, tmp_path, capsys):
        """Recorded with the frame-by-frame sampler; 200 replicas at n=10
        cross two block edges."""
        out = tmp_path / "pin.csv"
        argv = ["simulate", "brw", "--k", "2", "--alpha", "1.0", "--n-max", "10",
                "--replicas", "200", "--seed", "42", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "541f51c7cd277bfe2432b4a1df433fcaaa5bd8caeb9d1db743be27eec8c2a615"
        )
        extras = json.dumps(read_record_files(out)[2]["extras"], sort_keys=True)
        assert hashlib.sha256(extras.encode()).hexdigest() == (
            "f63d513bcd2d6c4fc36033e8021f671eea82c2e0e8fb5d60f52649d7abc48a3d"
        )


class TestSpine:
    def test_single_split_is_exponential_draw(self):
        path = spine_sample(P21, 0, SeedSpec(42, 0))
        assert path.split_times.shape == (1,)
        assert path.split_times[0] == SeedSpec(42, 0).rng().standard_exponential(1)[0]

    def test_strictly_increasing(self):
        path = spine_sample(P21, 20, SeedSpec(8, 0))
        assert (np.diff(path.split_times) > 0).all()

    def test_mean_matches_linearity(self):
        # E S_n = sum q^{-i}; 1e5 replicas, 3 standard errors
        n, reps = 10, 100_000
        samples = spine_sum_samples(P21, n, reps, SeedSpec(19, 0)) * P21.q ** (-n)
        mean_expected = sum(P21.q ** (-i) for i in range(n + 1))
        se = samples.std(ddof=1) / math.sqrt(reps)
        assert abs(samples.mean() - mean_expected) <= 3 * se

    def test_survival_matches_analytic(self):
        n, reps = 5, 100_000
        spine_vals = spine_sum_samples(P21, n, reps, SeedSpec(23, 0)) * P21.q ** (-n)
        for t in (2.0**5, 2.0**6):
            emp = float((spine_vals > t).mean())
            ana = split_time_survival(P21, n, t).value
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
            assert abs(emp - ana) <= 3 * se


def test_deep_sweep_mean_tracks_limit_law():
    """Mean of the centred maximum at generation 18 over 2000 replicas lands
    within 0.15 of the limit-law mean (location plus Euler-Mascheroni)."""
    from fragsim.qseries import qpochhammer_limit

    taus = np.empty(2000)
    for r in range(2000):
        taus[r] = brw_sweep(P21, 18, SeedSpec(202, r), floor=1e18)[18].tau
    limit_mean = -math.log(qpochhammer_limit(P21.q)) + 0.5772156649015329
    assert abs(taus.mean() - limit_mean) <= 0.15


class TestTreeMatrices:
    def test_shapes(self):
        gens = tree_matrices(P21, 3, 100, SeedSpec(2, 0))
        assert [g.shape for g in gens] == [(100, 1), (100, 2), (100, 4), (100, 8)]

    def test_marginal_law_matches_survival(self):
        from fragsim.laws import perpetuity_survival

        gens = tree_matrices(P21, 3, 50_000, SeedSpec(3, 0))
        leaf0 = gens[3][:, 0]
        for t in (1.0, 2.0, 3.0):
            emp = float((leaf0 > t).mean())
            ana = perpetuity_survival(P21.q, 3, t).value
            se = math.sqrt(emp * (1 - emp) / leaf0.size)
            assert abs(emp - ana) <= 3.5 * se

    @pytest.mark.parametrize("params", [P21, P31], ids=["k2", "k3"])
    def test_matches_oracle(self, params):
        gens = tree_matrices(params, 4, 37, SeedSpec(5, 1))
        oracle = tree_matrices_oracle(params.k, params.q, 4, 37, SeedSpec(5, 1).rng())
        for g, o in zip(gens, oracle, strict=True):
            assert np.array_equal(g, o)
        assert not any(np.shares_memory(a, b) for a, b in zip(gens, gens[1:]))

    def test_recursion_structure(self):
        gens = tree_matrices(P31, 2, 10, SeedSpec(4, 0))
        inc = gens[2] - P31.q * np.repeat(gens[1], P31.k, axis=1)
        assert (inc > 0).all()
