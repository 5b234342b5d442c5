"""Named verification suites behind ``fragsim verify``.

Each suite re-runs a battery of checks at operational scale (seconds, not
the minutes the full acceptance tests take) and reports observed against
expected per check. Deterministic suites compare against recorded golden
constants; seeded suites default to master seed 42, under which golden
rates were recorded, and fall back to looser absolute floors under any
other seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import goldens
from .brw import sweep_replicas
from .errors import SpecError
from .laws import (
    perpetuity_cdf,
    perpetuity_density,
    perpetuity_survival,
    perpetuity_survival_limit,
    tagged_depth_pmf,
)
from .lefttail import critical_term_count, left_tail_sandwich
from .params import ModelParams
from .predictors import min_leaf_center
from .qseries import qpochhammer_limit
from .seeds import SeedSpec
from .stats import generation_count_correlation, intensity_profile, ks_gumbel

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: str


def suite_tails(master_seed: int = 42) -> list[CheckResult]:
    out = []
    for (q, n), golden in goldens.ENVELOPE_MAX.items():
        observed = goldens.envelope_max(q, n)
        out.append(
            CheckResult(
                f"envelope max q={q} n={'inf' if n is None else n}",
                abs(observed - golden) <= 0.01 * golden,
                observed,
                f"{golden:.9g} +- 1%",
            )
        )
    # density equals -d/dt survival by central differences
    worst = 0.0
    h = 1e-4
    for q in (0.3, 0.5, 0.8):
        for n in (1, 5):
            for t in (0.5, 1.0, 2.0, 5.0):
                fd = (
                    perpetuity_survival(q, n, t - h).value
                    - perpetuity_survival(q, n, t + h).value
                ) / (2 * h)
                worst = max(worst, abs(fd - perpetuity_density(q, n, t).value))
    out.append(
        CheckResult("density vs -d/dt survival", worst <= 1e-6, worst, "<= 1e-6")
    )
    # the perpetuity limit dominates every finite-n survival
    worst = -1.0
    for q in (0.3, 0.5, 0.8):
        for n in (0, 1, 5, 20):
            for t in (0.1, 1.0, 5.0, 15.0):
                lim = perpetuity_survival_limit(q, t)
                fin = perpetuity_survival(q, n, t)
                gap = fin.value - lim.value - fin.abs_error - lim.abs_error
                worst = max(worst, gap)
    out.append(
        CheckResult("limit dominates finite n", worst <= 0.0, worst, "<= 0")
    )
    total = sum(tagged_depth_pmf(0.5, n, 3.0).value for n in range(41))
    out.append(
        CheckResult(
            "depth pmf total mass", abs(total - 1.0) <= 1e-8, total, "1 +- 1e-8"
        )
    )
    return out


def suite_leftail(master_seed: int = 42) -> list[CheckResult]:
    out = []
    worst_violation = 0.0
    for q in (0.3, 0.5, 0.8):
        for m in (1, 2, 3, 4):
            for s in (0.05, 0.1, 0.2):
                lower, upper = left_tail_sandwich(q, m, s)
                cdf = perpetuity_cdf(q, m - 1, s)
                violation = max(
                    lower - cdf.value - cdf.abs_error,
                    cdf.value - upper - cdf.abs_error,
                )
                worst_violation = max(worst_violation, violation)
    out.append(
        CheckResult(
            "sandwich brackets exact CDF (m<=4)",
            worst_violation <= 0.0,
            worst_violation,
            "<= 0",
        )
    )
    gap = goldens.left_tail_log_gap_max(range(5, 31, 5))
    out.append(
        CheckResult(
            "log upper bound + rate exponent bounded",
            gap <= 3.0
            and abs(gap - goldens.LEFT_TAIL_LOG_GAP_MAX)
            <= 0.01 * goldens.LEFT_TAIL_LOG_GAP_MAX,
            gap,
            f"<= 3 and {goldens.LEFT_TAIL_LOG_GAP_MAX:.9g} +- 1%",
        )
    )
    counts = [critical_term_count(0.5, math.exp(-j)) for j in range(3, 40)]
    monotone = all(b >= a for a, b in zip(counts, counts[1:]))
    out.append(
        CheckResult(
            "critical term count non-decreasing", monotone, float(monotone), "True"
        )
    )
    return out


def suite_extremes(master_seed: int = 42) -> list[CheckResult]:
    params = ModelParams(2, 1.0)
    n_max = 12
    sweep = sweep_replicas(params, n_max, [SeedSpec(master_seed, r) for r in range(400)])
    taus, kmins = sweep.tau[:, n_max], sweep.k_min[:, n_max]
    out = []
    ks = ks_gumbel(taus, params.q)
    out.append(
        CheckResult("KS vs limit law (n=12)", ks.statistic <= 0.12, ks.statistic, "<= 0.12")
    )
    limit_mean = -math.log(qpochhammer_limit(params.q)) + EULER_GAMMA
    gap = abs(float(taus.mean()) - limit_mean)
    out.append(
        CheckResult(
            "centred maximum mean vs limit", gap <= 0.15, gap, f"|mean - {limit_mean:.4f}| <= 0.15"
        )
    )
    med_gap = abs(float(np.median(-np.log(kmins))) - min_leaf_center(params, n_max))
    out.append(
        CheckResult("min leaf median vs center (n=12)", med_gap <= 0.9, med_gap, "<= 0.9")
    )
    return out


def suite_pointprocess(master_seed: int = 42) -> list[CheckResult]:
    params = ModelParams(2, 1.0)
    n_max, replicas = 13, 500
    seeds = [SeedSpec(master_seed, r) for r in range(replicas)]
    # every check below counts points at or above 0 only
    sweep = sweep_replicas(params, n_max, seeds, floor=0.0, point_generations=(12, 13))
    pts_12, pts_13 = sweep.points[12], sweep.points[13]
    reports = intensity_profile(pts_12, [(0.0, math.inf)], params.q)
    mean, expected = reports[0].mean_count, reports[0].expected
    out = [
        CheckResult(
            "mean count above 0 vs intensity",
            abs(mean - expected) <= 0.1 * expected,
            mean,
            f"{expected:.4f} +- 10%",
        ),
        CheckResult(
            "count dispersion near Poisson",
            0.7 <= reports[0].dispersion <= 1.3,
            reports[0].dispersion,
            "[0.7, 1.3]",
        ),
    ]
    corr = generation_count_correlation(pts_12, pts_13)
    out.append(
        CheckResult(
            "cross-generation count correlation",
            abs(corr.correlation) <= 0.15,
            corr.correlation,
            "|corr| <= 0.15",
        )
    )
    return out


def suite_coverage(master_seed: int = 42) -> list[CheckResult]:
    rate = goldens.largest_coverage_rate(math.e**9, 30, master_seed)
    checks = [CheckResult("largest window coverage", rate >= 0.85, rate, ">= 0.85")]
    if master_seed == 42:
        checks.append(
            CheckResult(
                "coverage matches recorded golden",
                abs(rate - goldens.COVERAGE_RATE_VERIFY) <= 0.05,
                rate,
                f"{goldens.COVERAGE_RATE_VERIFY:.9g} +- 0.05",
            )
        )
        conc, _ = goldens.min_concentration_sample(master_seed)
        checks.append(
            CheckResult(
                "min concentration matches recorded golden",
                abs(conc - goldens.MIN_CONCENTRATION_RATE) <= 0.05,
                conc,
                f"{goldens.MIN_CONCENTRATION_RATE:.9g} +- 0.05",
            )
        )
    return checks


_SUITE_FUNCS = {
    "tails": suite_tails,
    "leftail": suite_leftail,
    "extremes": suite_extremes,
    "pointprocess": suite_pointprocess,
    "coverage": suite_coverage,
}

SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, master_seed: int = 42) -> list[CheckResult]:
    if name == "all":
        return [res for suite in _SUITE_FUNCS.values() for res in suite(master_seed)]
    if name not in _SUITE_FUNCS:
        raise SpecError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCS[name](master_seed)
