"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte Carlo criteria use
the master seeds fixed below; golden rates were recorded under master seed
42 and must reproduce. Criteria with stated runtime budgets assert them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fragsim import goldens
from fragsim.brw import sweep_replicas
from fragsim.experiment import ExperimentSpec, run_experiment
from fragsim.gillespie import gillespie_run
from fragsim.laws import perpetuity_cdf, perpetuity_survival
from fragsim.lefttail import left_tail_sandwich
from fragsim.params import ModelParams
from fragsim.predictors import min_leaf_center
from fragsim.qseries import qpochhammer_limit
from fragsim.seeds import SeedSpec
from fragsim.stats import generation_count_correlation, intensity_profile, ks_gumbel

from oracles import (
    ConvolutionSurvival,
    factorial_moment_samples,
    hypoexp_cdf_mp,
    spine_sum_samples,
    tree_matrices_oracle,
)

P21 = ModelParams(2, 1.0)

SEED_SWEEP = 42       # criteria 5 and 6 (pinned by the criterion)
SEED_COVERAGE = 42    # criterion 9 (goldens recorded under this seed)
SEED_CONCENTRATION = 42  # criterion 10
SEED_SPINE = 7        # criterion 2
SEED_MOMENT = 11      # criterion 7
SEED_FKG = 13         # criterion 11
SEED_EQ_BRW = 1042    # criterion 8, walk side
SEED_EQ_GIL = 2042    # criterion 8, event side

TREND_REPLICAS = 16_000  # criterion 5 trend clause, sized in test_c05_gumbel_fit


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:02d}: {name}")
        raise
    print(f"[PASS] criterion {num:02d}: {name}")


@pytest.fixture(scope="module")
def big_sweep():
    """k=2, alpha=1 sweep to generation 17, 2000 replicas, master seed 42."""
    seeds = [SeedSpec(SEED_SWEEP, r) for r in range(2000)]
    sweep = sweep_replicas(P21, 17, seeds, point_generations=(16, 17))
    taus = {n: sweep.tau[:, n] for n in (8, 12, 16)}
    return taus, sweep.points[16], sweep.points[17]


@pytest.fixture(scope="module")
def trend_taus(big_sweep):
    """Centred maxima at generations 8 and 16 for replicas 0..TREND_REPLICAS-1,
    master seed 42.

    Replicas 0..1999 are the big_sweep streams and are reused: a replica's
    generations up to 16 do not depend on where its sweep stops.
    """
    taus, _, _ = big_sweep
    reused = taus[8].size
    seeds = [SeedSpec(SEED_SWEEP, r) for r in range(reused, TREND_REPLICAS)]
    rest = sweep_replicas(P21, 16, seeds).tau
    return {n: np.concatenate([taus[n], rest[:, n]]) for n in (8, 16)}


def test_c01_analytic_matches_convolution_oracle():
    with criterion(1, "exact survival matches numerical convolution to 1e-8"):
        start = time.monotonic()
        worst = 0.0
        for q in (0.3, 0.5, 0.8):
            for n in (1, 2, 3, 4):
                oracle = ConvolutionSurvival(q, n)
                for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                    gap = abs(perpetuity_survival(q, n, t).value - oracle(t))
                    worst = max(worst, gap)
        elapsed = time.monotonic() - start
        assert worst <= 1e-8, f"worst gap {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_monte_carlo_agreement():
    with criterion(2, "1e6 spine samples match the exact survival at 3 s.e."):
        start = time.monotonic()
        reps = 1_000_000
        for n in (5, 10):
            samples = spine_sum_samples(P21, n, reps, SeedSpec(SEED_SPINE, n))
            for t in (0.5, 1.0, 2.0, 5.0):
                emp = float((samples > t).mean())
                ana = perpetuity_survival(P21.q, n, t).value
                se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / reps)
                assert abs(emp - ana) <= 3.0 * se, (n, t, emp, ana)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c03_envelope_constants_match_goldens():
    with criterion(3, "tail envelope maxima reproduce recorded constants to 1%"):
        for (q, n), golden in goldens.ENVELOPE_MAX.items():
            worst = goldens.envelope_max(q, n)
            assert math.isfinite(worst)
            assert abs(worst - golden) <= 0.01 * golden, (q, n, worst, golden)


def test_c04_left_tail_at_desk_scale():
    with criterion(4, "left-tail rate bounded on grid and sandwich brackets CDF"):
        start = time.monotonic()
        gap = goldens.left_tail_log_gap_max(range(5, 31, 5))
        assert gap <= 3.0, gap
        for m in (1, 2, 3, 4):
            for s in (1e-10, 1e-4, 0.05, 0.2):
                lower, upper = left_tail_sandwich(0.5, m, s)
                exact = float(hypoexp_cdf_mp(0.5, m - 1, s))
                assert lower * (1 - 1e-12) <= exact <= upper * (1 + 1e-12), (m, s)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c05_gumbel_fit(big_sweep, trend_taus):
    """KS(16) <= 0.08 at 2000 replicas, and KS(16) <= KS(8) + 0.01 at
    TREND_REPLICAS replicas, both under master seed 42.

    The trend clause compares two KS statistics, so its 0.01 allowance has
    to exceed the sampling noise of their difference. The exact law F_n of
    the centred maximum (from M_n = q^n W + max of k iid M_{n-1}) is
    sup|F_n - G| = 0.0039 from the limit G at n=8 and 2.8e-5 at n=16, so the
    true trend is far below 0.01 and both statistics are mostly noise. At
    2000 replicas the sd of KS(16) - KS(8) is 0.0076 to 0.0087 (over master
    seeds, over disjoint replica blocks, and over draws from the exact
    laws), the allowance is 1.2 to 1.3 sd, and about one seed in ten fails,
    42 among them. The replica count is set from that noise, not from the
    outcome at seed 42: 0.01 must be at least 3 sd. Scaling sd 0.0086 by
    sqrt(2000/N) asks for N >= 2000 * (3 * 0.0086 / 0.01)^2 = 13,300. Draws
    from the exact laws give sd 0.0036 at N = 12,000 (2.8 sd) and 0.0032 at
    N = 16,000 (3.1 sd), where a correct engine fails the clause with
    probability below 0.1% (2 of 3000 draws). The tolerance is not widened.
    """
    with criterion(5, "centred maxima fit the limit law (KS <= 0.08, improving)"):
        taus, _, _ = big_sweep
        ks_16 = ks_gumbel(taus[16], P21.q).statistic
        trend_16 = ks_gumbel(trend_taus[16], P21.q).statistic
        trend_8 = ks_gumbel(trend_taus[8], P21.q).statistic
        print(
            f"  KS(16) = {ks_16:.4f} at N = {taus[16].size}, bound 0.08; "
            f"KS(16) = {trend_16:.4f}, KS(8) = {trend_8:.4f} "
            f"at N = {TREND_REPLICAS}, bound KS(8) + 0.01"
        )
        assert ks_16 <= 0.08, f"KS(16) = {ks_16:.4f}"
        assert trend_16 <= trend_8 + 0.01, (
            f"KS(16) = {trend_16:.4f} vs KS(8) = {trend_8:.4f} at N = {TREND_REPLICAS}"
        )


def test_ks_trend_within_noise(big_sweep):
    """KS along generations 8, 12, 16 does not degrade beyond noise.

    An inversion is a step increase beyond 0.02, about two standard
    deviations of the difference of two KS statistics at 2000 replicas; at
    most one is allowed. A real centring or scaling bug blows both steps
    out by an order of magnitude.
    """
    taus, _, _ = big_sweep
    ks = [ks_gumbel(taus[n], P21.q).statistic for n in (8, 12, 16)]
    inversions = sum(1 for a, b in zip(ks, ks[1:]) if b > a + 0.02)
    assert inversions <= 1, ks


def test_c06_intensity_and_poissonness(big_sweep):
    with criterion(6, "point counts match the exponential intensity, Poisson-like"):
        _, points_16, points_17 = big_sweep
        reports = intensity_profile(points_16, [(0.0, math.inf)], P21.q)
        expected = 1.0 / qpochhammer_limit(P21.q)
        mean = reports[0].mean_count
        assert abs(mean - expected) <= 0.05 * expected, (mean, expected)
        assert 0.8 <= reports[0].dispersion <= 1.2, reports[0].dispersion
        corr = generation_count_correlation(points_16, points_17).correlation
        assert abs(corr) <= 0.1, corr


def test_c07_first_moment_identity():
    with criterion(7, "tuple-count estimate matches the exact first moment"):
        reps = 100_000
        for i, t in enumerate((-2.0, 0.0, 1.0)):
            samples = factorial_moment_samples(
                P21, 3, [[t]], reps, SeedSpec(SEED_MOMENT, i)
            )
            expected = 8.0 * perpetuity_survival(
                P21.q, 3, t + 3.0 * P21.gamma
            ).value
            se = samples.std(ddof=1) / math.sqrt(reps)
            assert abs(samples.mean() - expected) <= 3.0 * se, (t, samples.mean(), expected)


def test_c08_engine_equivalence():
    with criterion(8, "event-driven and walk engines agree on depth exceedance"):
        reps = 10_000
        pairs = [(n, s) for n in (6, 8) for s in (-1.0, 1.0)]
        t_for = {
            (n, s): P21.q ** (-n) * (P21.gamma * n + s) for (n, s) in pairs
        }
        t_max = max(t_for.values())
        sweep = sweep_replicas(P21, 8, [SeedSpec(SEED_EQ_BRW, r) for r in range(reps)])
        taus = {n: sweep.tau[:, n] for n in (6, 8)}
        m_at = {pair: np.empty(reps, dtype=bool) for pair in pairs}
        for r in range(reps):
            traj = gillespie_run(P21, t_max + 1.0, SeedSpec(SEED_EQ_GIL, r))
            for (n, s) in pairs:
                m_t, _ = traj.value_at(t_for[(n, s)])
                m_at[(n, s)][r] = m_t <= n
        for (n, s) in pairs:
            p_walk = float((taus[n] > s).mean())
            p_event = float(m_at[(n, s)].mean())
            se = math.sqrt(
                p_walk * (1 - p_walk) / reps + p_event * (1 - p_event) / reps
            )
            assert abs(p_walk - p_event) <= 3.0 * max(se, 1e-4), (n, s, p_walk, p_event)


# goldens.largest_coverage_rate(math.e**12, 100, 42), recorded; regenerate by
# printing it
COVERAGE_RATE_FULL = 1.0


def test_c09_largest_window_coverage():
    with criterion(9, "largest-fragment depth stays in its predictor window"):
        rate = goldens.largest_coverage_rate(math.e**12, 100, SEED_COVERAGE)
        assert rate >= 0.9, rate
        assert abs(rate - COVERAGE_RATE_FULL) <= 0.05, rate


def test_c10_min_concentration():
    with criterion(10, "minimum leaf value concentrates at the predicted center"):
        rate, sweep = goldens.min_concentration_sample(SEED_CONCENTRATION)
        assert abs(rate - goldens.MIN_CONCENTRATION_RATE) <= 0.05, rate
        median = float(np.median(-np.log(sweep.k_min[:, 20])))
        center = min_leaf_center(P21, 20)
        assert abs(median - center) <= 0.75, (median, center)


def test_c11_fkg_and_decoupling():
    with criterion(11, "positive association and pairwise decoupling hold empirically"):
        reps = 100_000
        gens = tree_matrices_oracle(P21.k, P21.q, 3, reps, SeedSpec(SEED_FKG, 0).rng())
        leaves = gens[3]
        # positive association: all eight leaves jointly exceed a level at
        # least as often as independence would allow
        x = 0.5  # = q^3 * 4.0, the leaf-value threshold
        joint = float((leaves > x).all(axis=1).mean())
        margs = (leaves > x).mean(axis=0)
        prod = float(np.prod(margs))
        se_joint = math.sqrt(joint * (1 - joint) / reps)
        se_prod = prod * math.sqrt(
            float(np.sum([(1 - p) / (p * reps) for p in margs]))
        )
        combined = math.sqrt(se_joint**2 + se_prod**2)
        assert joint >= prod - 3.0 * combined, (joint, prod)
        # pairwise decoupling against the analytic product bound, for pair
        # split depths m = 0 (siblings), 1 and 2
        x2 = 1.5
        for partner, m in ((1, 0), (2, 1), (4, 2)):
            both = float(((leaves[:, 0] <= x2) & (leaves[:, partner] <= x2)).mean())
            bound = (
                perpetuity_cdf(P21.q, 3, x2).value
                * perpetuity_cdf(P21.q, m, x2).value
            )
            se = math.sqrt(both * (1 - both) / reps)
            assert both <= bound + 3.0 * se, (partner, m, both, bound)


def test_c12_determinism_of_persisted_runs(tmp_path):
    with criterion(12, "identical specs give byte-identical CSV bodies"):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        base = dict(
            k=2, alpha=1.0, engine="brw", n_max=8, replicas=6, master_seed=5
        )
        run_experiment(ExperimentSpec(**base, out=str(paths[0])), jobs=1)
        run_experiment(ExperimentSpec(**base, out=str(paths[1])), jobs=1)
        run_experiment(ExperimentSpec(**base, out=str(paths[2])), jobs=8)
        body = paths[0].read_bytes()
        assert body == paths[1].read_bytes(), "rerun changed the CSV body"
        assert body == paths[2].read_bytes(), "--jobs changed the CSV body"
        gil = dict(k=2, alpha=1.0, engine="gillespie", t_end=300.0, replicas=5, master_seed=6)
        ga, gb = tmp_path / "ga.csv", tmp_path / "gb.csv"
        run_experiment(ExperimentSpec(**gil, out=str(ga)), jobs=1)
        run_experiment(ExperimentSpec(**gil, out=str(gb)), jobs=4)
        assert ga.read_bytes() == gb.read_bytes()
