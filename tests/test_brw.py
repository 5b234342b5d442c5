import hashlib
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fragsim import brw
from fragsim.brw import block_rows, spine_sample, sweep_replicas
from fragsim.cli import main
from fragsim.errors import BudgetError, DomainError
from fragsim.experiment import read_sidecar, sidecar_path
from fragsim.laws import split_time_survival
from fragsim.params import ModelParams
from fragsim.seeds import SeedSpec, stream_seed
from oracles import (
    brw_frames_oracle,
    brw_summary_oracle,
    spine_sum_samples,
    tree_matrices_oracle,
)

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
    """Sweeps of one replica, or a few, through sweep_replicas."""

    def test_root_generation(self):
        sweep = sweep_replicas(P21, 0, [SeedSpec(42, r) for r in range(4)])
        assert sweep.k_min.shape == (4, 1)
        assert (sweep.k_min == sweep.k_max).all() and (sweep.k_max == sweep.tau).all()
        assert (sweep.k_min > 0).all()
        # the root value is the stream's first standard exponential
        expected = SeedSpec(42, 0).rng().standard_exponential(1)[0]
        assert sweep.k_min[0, 0] == expected

    def test_deterministic(self):
        a = sweep_replicas(P31, 4, [SeedSpec(9, 3)], point_generations=range(5))
        b = sweep_replicas(P31, 4, [SeedSpec(9, 3)], point_generations=range(5))
        for x, y in ((a.k_min, b.k_min), (a.k_max, b.k_max), (a.tau, b.tau)):
            assert np.array_equal(x, y)
        for n in range(5):
            assert np.array_equal(a.points[n][0], b.points[n][0])

    def test_child_increments_positive(self):
        # each child exceeds q times its parent, so each generation's
        # extremes exceed q times those of the generation before
        sweep = sweep_replicas(P31, 4, [SeedSpec(1, r) for r in range(20)])
        for extreme in (sweep.k_min, sweep.k_max):
            assert (extreme[:, 1:] > P31.q * extreme[:, :-1]).all()

    def test_frames_are_independent_copies(self):
        # below a floor of -inf the points are a whole frame, centred and
        # sorted, in arrays of their own rather than views of the kernel
        sweep = sweep_replicas(P31, 5, [SeedSpec(6, 2)], -math.inf, range(6))
        oracle = brw_frames_oracle(P31.k, P31.q, 5, SeedSpec(6, 2).rng())
        points = [sweep.points[n][0] for n in range(6)]
        for n, frame in enumerate(oracle):
            assert np.array_equal(points[n], np.sort(frame - P31.gamma * n))
            assert not any(np.shares_memory(points[n], p) for p in points[:n])

    def test_frame_sizes_and_extremes(self):
        sweep = sweep_replicas(P21, 6, [SeedSpec(5, 1)], -math.inf, range(7))
        for n in range(7):
            points = sweep.points[n][0]
            assert points.size == 2**n
            assert sweep.k_min[0, n] > 0
            assert points[0] == sweep.k_min[0, n] - P21.gamma * n
            assert points[-1] == sweep.tau[0, n]

    def test_tau_definition(self):
        sweep = sweep_replicas(P21, 5, [SeedSpec(3, 2)])
        for n in range(6):
            assert sweep.tau[0, n] == sweep.k_max[0, n] - P21.gamma * n
            assert sweep.k_min[0, n] <= sweep.k_max[0, n]

    def test_points_floor(self):
        sweep = sweep_replicas(P21, 8, [SeedSpec(4, 0)], -2.0, range(9))
        for n in range(9):
            points = sweep.points[n][0]
            assert (points >= -2.0).all()
            assert (np.diff(points) >= 0).all()

    def test_budget_guard_before_allocation(self, monkeypatch):
        # generation 23, grown in place, plus one 1 MiB chunk of generation 24
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000")
        with pytest.raises(BudgetError) as err:
            sweep_replicas(P21, 24, [SeedSpec(0, 0)])
        assert err.value.required_bytes == 8 * (2**23 + 2**17)

    def test_domain(self):
        with pytest.raises(DomainError):
            sweep_replicas(P21, -1, [SeedSpec(0, 0)])
        with pytest.raises(DomainError):
            sweep_replicas(P21, 3, [])


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
        last = sweep_replicas(P21, 8, seeds[-1:], point_generations=(8,))
        assert last.tau[0].tolist() == block.tau[-1].tolist()
        assert np.array_equal(last.points[8][0], block.points[8][-1])

    def test_rows_follow_seed_order(self):
        seeds = [SeedSpec(7, r) for r in (3, 0, 2)]
        sweep = sweep_replicas(P21, 3, seeds)
        for row, seed in enumerate(seeds):
            alone = sweep_replicas(P21, 3, [seed])
            assert np.array_equal(sweep.k_min[row], alone.k_min[0])
            assert np.array_equal(sweep.tau[row], alone.tau[0])

    def test_block_size(self):
        assert [block_rows(2, n) for n in (8, 12, 13, 16, 17, 20)] == [341, 21, 10, 1, 1, 1]
        # one replica's buffers: generation n-1 and the smaller of generation
        # n and one 1 MiB chunk
        assert [8 * sum(brw._block_doubles(2, n, 1)) for n in (8, 17, 18, 20)] == [
            8 * (2**8 + 2**7), 8 * (2**17 + 2**16), 8 * (2**17 + 2**17), 8 * (2**19 + 2**17)
        ]
        assert brw._block_doubles(3, 13, 2) == (2 * 3**12, 2 * brw._chunk_width(3, 2))

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_batched_blocks_draw_whole_generations(self, k, monkeypatch):
        # generations grow in place over their parents, which is safe for a
        # block of several rows only if each generation is one chunk
        for budget in (None, 1 << 16):
            if budget is not None:
                monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(budget))
            for n_max in range(26):
                rows = block_rows(k, n_max)
                if rows > 1:
                    assert k**n_max <= brw._chunk_width(k, rows)

    def test_deep_sweep_holds_one_generation_and_a_chunk(self, monkeypatch):
        monkeypatch.setattr(brw, "usable_cpus", lambda: 1)
        seeds = [SeedSpec(1, r) for r in range(2)]
        sweep_replicas(P21, 3, seeds)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            sweep_replicas(P21, 20, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2**19 + 2**17) + (64 << 10)

    def test_budget_shrinks_the_block(self, monkeypatch):
        seeds = [SeedSpec(5, r) for r in range(7)]
        full = sweep_replicas(P21, 8, seeds, point_generations=(8,))
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(3 * _replica_bytes(2, 8)))
        assert block_rows(2, 8) == 3
        shrunk = sweep_replicas(P21, 8, seeds, point_generations=(8,))
        for a, b in ((shrunk.k_min, full.k_min), (shrunk.k_max, full.k_max), (shrunk.tau, full.tau)):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(shrunk.points[8], full.points[8], strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_max", [8, 10])
    @pytest.mark.parametrize("params", [P21, P31], ids=["k2", "k3"])
    def test_chunks_match_oracle(self, params, n_max, monkeypatch):
        # chunks of 64 leaves, 63 at k=3: generations from 7 at k=2 and from
        # 4 at k=3 cross chunk edges, those before n_max while growing in
        # place over their parents; generation 8 spans 4 chunks at k=2 and
        # 105 at k=3, generation 10 spans 16 and 938
        monkeypatch.setattr(brw, "BLOCK_CAP_BYTES", 8 * 64)
        seeds = [SeedSpec(13, r) for r in range(3)]
        frames = [brw_frames_oracle(params.k, params.q, n_max, s.rng()) for s in seeds]
        for floor in (-math.inf, 0.0, math.inf):
            sweeps = []
            for workers in (1, 2):
                monkeypatch.setattr(brw, "usable_cpus", lambda: workers)
                sweeps.append(sweep_replicas(params, n_max, seeds, floor, range(n_max + 1)))
            one, two = sweeps
            for a, b in ((one.k_min, two.k_min), (one.k_max, two.k_max), (one.tau, two.tau)):
                assert a.tobytes() == b.tobytes()
            for n in range(n_max + 1):
                for a, b in zip(one.points[n], two.points[n], strict=True):
                    assert a.tobytes() == b.tobytes()
            for r, fs in enumerate(frames):
                for n, f in enumerate(fs):
                    k_min, k_max, tau, points = brw_summary_oracle(f, n, params.gamma, floor)
                    assert (one.k_min[r, n], one.k_max[r, n], one.tau[r, n]) == (k_min, k_max, tau)
                    assert one.points[n][r].tobytes() == points.tobytes()

    def test_thread_count(self, monkeypatch):
        pools = []

        class Recorder(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(brw, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(brw, "BLOCK_CAP_BYTES", 8 * 64)
        monkeypatch.setattr(brw, "usable_cpus", lambda: 64)
        seeds = [SeedSpec(3, r) for r in range(5)]
        sweep_replicas(P21, 6, seeds)  # generation 6 is one chunk: no threads
        assert pools == []
        sweep_replicas(P21, 8, seeds[:3])  # one replica a block, 3 blocks
        assert pools == [3]
        # generation 7, and generation 6 into which generation 8 is drawn
        per_worker = 8 * (2**7 + 2**6)
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * per_worker - 1))
        one = sweep_replicas(P21, 8, seeds, point_generations=(8,))
        assert pools == [3]  # room for one worker: it runs, on this thread
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * per_worker))
        two = sweep_replicas(P21, 8, seeds, point_generations=(8,))
        assert pools == [3, 2]
        assert one.k_max.tobytes() == two.k_max.tobytes()
        for a, b in zip(one.points[8], two.points[8], strict=True):
            assert a.tobytes() == b.tobytes()
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(per_worker - 1))
        with pytest.raises(BudgetError) as err:
            sweep_replicas(P21, 8, seeds)
        assert err.value.required_bytes == per_worker

    def test_threads_stress(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a lost or misplaced row would change the bytes
        monkeypatch.setattr(brw, "BLOCK_CAP_BYTES", 8 * 64)
        seeds = [SeedSpec(21, r) for r in range(24)]
        sweeps = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 8):
                monkeypatch.setattr(brw, "usable_cpus", lambda: workers)
                sweeps.append(sweep_replicas(P31, 8, seeds, -math.inf, (7, 8)))
        finally:
            sys.setswitchinterval(interval)
        one, many = sweeps
        assert one.k_min.tobytes() == many.k_min.tobytes()
        assert one.k_max.tobytes() == many.k_max.tobytes()
        for n in (7, 8):
            for a, b in zip(one.points[n], many.points[n], strict=True):
                assert a.tobytes() == b.tobytes()

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
        extras = json.loads(sidecar_path(out).read_text())["extras"]
        points = json.dumps({"points_final_generation": extras["points_final_generation"]},
                            sort_keys=True)
        assert hashlib.sha256(points.encode()).hexdigest() == (
            "f63d513bcd2d6c4fc36033e8021f671eea82c2e0e8fb5d60f52649d7abc48a3d"
        )
        # what the package reads: the unit-bin counts, in replica order
        counts = json.dumps(read_sidecar(out)["extras"])
        assert hashlib.sha256(counts.encode()).hexdigest() == (
            "18d15ec6a2712b26e89eb1d979129a4350ad8ed48b28f699ccb2996877091f66"
        )
        table = tmp_path / "intensity.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(table)]) == 0
        assert hashlib.sha256(table.read_bytes()).hexdigest() == (
            "b50f5891780d8273090300d11d5397d73d2b63ea6321309d9b73f0d4a1bc98f5"
        )


class TestSpine:
    def test_single_split_is_exponential_draw(self):
        split_times = spine_sample(P21, 0, SeedSpec(42, 0))
        assert split_times.shape == (1,)
        assert split_times[0] == SeedSpec(42, 0).rng().standard_exponential(1)[0]

    def test_strictly_increasing(self):
        split_times = spine_sample(P21, 20, SeedSpec(8, 0))
        assert (np.diff(split_times) > 0).all()

    def test_refuses_what_a_float_cannot_hold(self):
        # the weights 2^i are floats up to i = 1023, where S_1023 overflows
        # whenever W_1023 + W_1022/2 + ... exceeds 2; no RuntimeWarning leaks
        with pytest.raises(DomainError, match="n must be at most 1023 at q=0.5"):
            spine_sample(P21, 1024, SeedSpec(1, 0))
        overflowed = 0
        for r in range(8):
            try:
                assert np.isfinite(spine_sample(P21, 1023, SeedSpec(1, r))).all()
            except DomainError as err:
                assert "split time S_1023 overflows a float at q=0.5" in str(err)
                overflowed += 1
        assert 0 < overflowed < 8

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

    taus = sweep_replicas(P21, 18, [SeedSpec(202, r) for r in range(2000)]).tau[:, 18]
    limit_mean = -math.log(qpochhammer_limit(P21.q)) + 0.5772156649015329
    assert abs(taus.mean() - limit_mean) <= 0.15


class TestTreeMatrices:
    """The many-replica trees that c07 and c11 sample, from one stream."""

    def test_shapes(self):
        gens = tree_matrices_oracle(P21.k, P21.q, 3, 100, SeedSpec(2, 0).rng())
        assert [g.shape for g in gens] == [(100, 1), (100, 2), (100, 4), (100, 8)]

    def test_marginal_law_matches_survival(self):
        from fragsim.laws import perpetuity_survival

        gens = tree_matrices_oracle(P21.k, P21.q, 3, 50_000, SeedSpec(3, 0).rng())
        leaf0 = gens[3][:, 0]
        for t in (1.0, 2.0, 3.0):
            emp = float((leaf0 > t).mean())
            ana = perpetuity_survival(P21.q, 3, t).value
            se = math.sqrt(emp * (1 - emp) / leaf0.size)
            assert abs(emp - ana) <= 3.5 * se

    def test_recursion_structure(self):
        gens = tree_matrices_oracle(P31.k, P31.q, 2, 10, SeedSpec(4, 0).rng())
        inc = gens[2] - P31.q * np.repeat(gens[1], P31.k, axis=1)
        assert (inc > 0).all()
