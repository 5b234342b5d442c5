import math

import numpy as np
import pytest
from mpmath import mp, mpf

from fragsim.brw import sweep_replicas
from fragsim.errors import DomainError
from fragsim.gillespie import GillespieTrajectory, DepthCensus
from fragsim.laws import perpetuity_survival
from fragsim.params import ModelParams
from fragsim.predictors import (
    ceil_strict,
    largest_depth_center,
    min_leaf_center,
    smallest_depth_center,
)
from fragsim.qseries import qpochhammer_limit
from fragsim.seeds import SeedSpec
from fragsim.stats import (
    CoverageReport,
    generation_count_correlation,
    intensity_profile,
    ks_gumbel,
    largest_window_coverage,
    min_concentration,
    smallest_window_coverage,
)

from oracles import factorial_moment_samples

P21 = ModelParams(2, 1.0)


class TestKSGumbel:
    def test_exact_limit_samples_small_statistic(self):
        # inverse-transform samples drawn from the reference itself
        rng = np.random.default_rng(77)
        phi = qpochhammer_limit(0.5)
        u = rng.random(10_000)
        samples = -np.log(-np.log(u) * phi)
        report = ks_gumbel(samples, 0.5)
        assert report.statistic < 0.02
        assert report.sample_size == 10_000

    def test_constant_samples_large_statistic(self):
        report = ks_gumbel(np.full(500, 1.3), 0.5)
        assert report.statistic >= 0.5

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(3)
        report = ks_gumbel(rng.normal(size=300), 0.5)
        assert 0.0 <= report.statistic <= 1.0

    def test_needs_100_samples(self):
        with pytest.raises(DomainError):
            ks_gumbel(np.ones(99), 0.5)


class TestIntensityProfile:
    def test_expected_masses(self):
        phi = qpochhammer_limit(0.5)
        reports = intensity_profile(
            [[0.5], [1.2]], [(0.0, math.inf), (1.0, math.inf), (2.0, math.inf)], 0.5
        )
        assert reports[0].expected == pytest.approx(1.0 / phi, rel=1e-12)
        assert reports[0].expected == pytest.approx(3.4627, abs=2e-4)
        assert reports[0].expected > reports[1].expected > reports[2].expected

    def test_counts_are_per_replica(self):
        # bins are half-open [lo, hi), and replicas need not be sorted
        reports = intensity_profile(
            [[0.1, 0.2, 5.0], [3.0], [], [0.0, 1.0], [5.0, 0.5, -1.0, 0.9]],
            [(0.0, 1.0)],
            0.5,
        )
        assert reports[0].mean_count == pytest.approx((2 + 0 + 0 + 1 + 2) / 5)

    def test_poisson_synthetic_dispersion(self):
        rng = np.random.default_rng(8)
        pts = [list(rng.uniform(0, 1, rng.poisson(3.0))) for _ in range(4000)]
        reports = intensity_profile(pts, [(0.0, 1.0)], 0.5)
        assert reports[0].dispersion == pytest.approx(1.0, abs=0.1)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            intensity_profile([], [(0.0, 1.0)], 0.5)

    def test_expected_mass_where_exp_overflows(self):
        # e^-lo overflows a float below lo = -709.78; the mass on [lo, hi)
        # is then inf only where it exceeds a float itself. Above, the
        # formula is unchanged, bit for bit.
        q = 0.01
        phi = qpochhammer_limit(q)
        intervals = [(-1000.0, -999.0), (-710.0, -709.5), (-709.9, -709.0), (-700.0, math.inf)]
        reports = intensity_profile([[0.0]], intervals, q)
        assert reports[0].expected == math.inf
        with mp.workdps(40):
            for (lo, hi), report in zip(intervals[1:3], reports[1:3]):
                exact = float((mp.exp(-mpf(lo)) - mp.exp(-mpf(hi))) / mpf(phi))
                assert math.isfinite(report.expected)
                assert report.expected == pytest.approx(exact, rel=1e-12)
        assert reports[3].expected == math.exp(700.0) / phi


class TestFactorialMoment:
    def test_empty_product_is_one(self):
        samples = factorial_moment_samples(P21, 3, [[]], 50, SeedSpec(1, 0))
        assert samples.mean() == 1.0

    def test_infinite_threshold_gives_zero(self):
        samples = factorial_moment_samples(P21, 3, [[1e9]], 50, SeedSpec(1, 0))
        assert samples.mean() == 0.0

    def test_first_moment_identity(self):
        # E N_3([t, inf)) = k^3 P(walk value > t + 3 gamma), exact identity
        reps = 40_000
        for t in (0.0, 1.0):
            samples = factorial_moment_samples(P21, 3, [[t]], reps, SeedSpec(29, 0))
            expected = 8 * perpetuity_survival(P21.q, 3, t + 3 * P21.gamma).value
            se = samples.std(ddof=1) / math.sqrt(reps)
            assert abs(samples.mean() - expected) <= 3 * se

    def test_pair_count_formula(self):
        # two equal thresholds count ordered distinct pairs c*(c-1)
        samples = factorial_moment_samples(P21, 2, [[-10.0, -10.0]], 10, SeedSpec(2, 0))
        assert (samples == 4 * 3).all()


def _staircase_from_center(center_fn, params, t_end, n_levels=200):
    """Trajectory whose value at t is exactly ceil_strict(center(t))."""
    times = [0.0]
    values = [int(ceil_strict(center_fn(params, math.e * 1.001)))]
    t_grid = np.exp(np.linspace(math.log(math.e * 1.001), math.log(t_end), 4000))
    for t in t_grid:
        v = ceil_strict(center_fn(params, float(t)))
        if v != values[-1]:
            times.append(float(t))
            values.append(v)
    arr_t = np.asarray(times)
    arr_v = np.asarray(values, dtype=np.int64)
    census = DepthCensus(counts={})
    return GillespieTrajectory(
        t_end=t_end, times=arr_t, min_depths=arr_v, max_depths=arr_v, census=census
    )


class TestCoverage:
    def test_perfect_staircase_full_coverage(self):
        t_end = math.e**9
        traj = _staircase_from_center(largest_depth_center, P21, t_end)
        report = largest_window_coverage(traj, P21)
        assert report.rate == 1.0

    def test_perfect_smallest_staircase(self):
        t_end = math.e**9
        traj = _staircase_from_center(smallest_depth_center, P21, t_end)
        report = smallest_window_coverage(traj, P21)
        assert report.rate == 1.0

    def test_burn_in_domain(self):
        traj = _staircase_from_center(largest_depth_center, P21, math.e**3)
        with pytest.raises(DomainError):
            largest_window_coverage(traj, P21)

    def test_rate_bounds(self):
        report = CoverageReport(probes=10, hits=7)
        assert report.rate == 0.7


class TestMinConcentration:
    def test_excludes_small_generations(self):
        sweep = sweep_replicas(P21, 1, [SeedSpec(2, r) for r in range(3)])
        report = min_concentration(sweep.k_min, P21)
        assert report.probes == 0

    def test_matches_entry_loop(self):
        # one (replica, generation) entry at a time, as the counts are defined
        k_min = sweep_replicas(P21, 12, [SeedSpec(4, r) for r in range(30)]).k_min
        probes = hits = 0
        for row in k_min:
            for n, value in enumerate(row):
                if n >= 2:
                    probes += 1
                    half = n ** (-1.0 / 3.0) + 0.5
                    hits += abs(-math.log(value) - min_leaf_center(P21, n)) <= half
        report = min_concentration(k_min, P21)
        assert (report.probes, report.hits) == (probes, hits)
        assert probes == 30 * 11 and 0 < hits < probes


class TestGenerationCorrelation:
    def test_independent_poisson_near_zero(self):
        rng = np.random.default_rng(21)
        a = [list(rng.uniform(0, 1, rng.poisson(3.0))) for _ in range(3000)]
        b = [list(rng.uniform(0, 1, rng.poisson(3.0))) for _ in range(3000)]
        report = generation_count_correlation(a, b)
        assert abs(report.correlation) <= 3 * report.stderr

    def test_duplicated_lists_fully_correlated(self):
        rng = np.random.default_rng(22)
        a = [list(rng.uniform(0, 1, rng.poisson(3.0))) for _ in range(500)]
        report = generation_count_correlation(a, [list(x) for x in a])
        assert report.correlation == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_replicas(self):
        with pytest.raises(DomainError):
            generation_count_correlation([[1.0]], [[1.0]])
        with pytest.raises(DomainError):
            generation_count_correlation([[1.0]], [[1.0], [2.0]])
