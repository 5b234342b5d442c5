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
from itertools import product

import numpy as np

from . import goldens
from .brw import sweep_replicas
from .errors import SpecError, check_int
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


def _text(x: float, digits: int) -> str:
    """``x`` to ``digits`` significant digits, exponent unpadded: 1e-6, not 1e-06."""
    mantissa, _, exponent = f"{x:.{digits}g}".partition("e")
    return f"{mantissa}e{int(exponent)}" if exponent else mantissa


@dataclass(frozen=True)
class CheckResult:
    """One check, which passes when ``lo <= observed <= hi``.

    Either bound may be infinite. ``relative`` marks a two-sided bound that
    was set as a fraction of its center; ``expected`` prints it in percent.
    """

    name: str
    observed: float
    lo: float = -math.inf
    hi: float = math.inf
    relative: bool = False

    @classmethod
    def near(
        cls, name: str, observed: float, center: float, tol: float, relative: bool = False
    ) -> CheckResult:
        """Bound ``center +- tol``, or ``center +- tol * |center|`` if relative."""
        half = tol * abs(center) if relative else tol
        return cls(name, observed, center - half, center + half, relative)

    @property
    def passed(self) -> bool:
        return self.lo <= self.observed <= self.hi

    @property
    def expected(self) -> str:
        if self.lo == -math.inf:
            return f"<= {_text(self.hi, 9)}"
        if self.hi == math.inf:
            return f">= {_text(self.lo, 9)}"
        center, half = (self.lo + self.hi) / 2, (self.hi - self.lo) / 2
        tol = f"{_text(100 * half / abs(center), 6)}%" if self.relative else _text(half, 6)
        return f"{_text(center, 9)} +- {tol}"


def _limit_gap(q: float, n: int, t: float) -> float:
    """How far the finite-n survival exceeds its perpetuity limit beyond both error bounds."""
    lim, fin = perpetuity_survival_limit(q, t), perpetuity_survival(q, n, t)
    return fin.value - lim.value - fin.abs_error - lim.abs_error


def _density_error(q: float, n: int, t: float) -> float:
    """|density + d/dt survival|, the derivative by central differences."""
    h = 1e-4
    fd = (perpetuity_survival(q, n, t - h).value - perpetuity_survival(q, n, t + h).value) / (2 * h)
    return abs(fd - perpetuity_density(q, n, t).value)


def _sandwich_violation(q: float, m: int, s: float) -> float:
    """How far the exact CDF of m terms lies outside the left-tail sandwich."""
    lower, upper = left_tail_sandwich(q, m, s)
    cdf = perpetuity_cdf(q, m - 1, s)
    return max(lower - cdf.value - cdf.abs_error, cdf.value - upper - cdf.abs_error)


def suite_tails(master_seed: int = 42) -> list[CheckResult]:
    out = [
        CheckResult.near(f"envelope max q={q} n={'inf' if n is None else n}",
                         goldens.envelope_max(q, n), golden, 0.01, relative=True)
        for (q, n), golden in goldens.ENVELOPE_MAX.items()
    ]
    qs = (0.3, 0.5, 0.8)
    density = max(_density_error(*a) for a in product(qs, (1, 5), (0.5, 1.0, 2.0, 5.0)))
    limit = max(_limit_gap(*a) for a in product(qs, (0, 1, 5, 20), (0.1, 1.0, 5.0, 15.0)))
    total = sum(tagged_depth_pmf(0.5, n, 3.0).value for n in range(41))
    return out + [
        CheckResult("density vs -d/dt survival", density, hi=1e-6),
        CheckResult("limit dominates finite n", limit, hi=0.0),
        CheckResult.near("depth pmf total mass", total, 1.0, 1e-8),
    ]


def suite_leftail(master_seed: int = 42) -> list[CheckResult]:
    grid = product((0.3, 0.5, 0.8), (1, 2, 3, 4), (0.05, 0.1, 0.2))
    violation = max(0.0, *(_sandwich_violation(*a) for a in grid))
    golden = goldens.LEFT_TAIL_LOG_GAP_MAX
    counts = [critical_term_count(0.5, math.exp(-j)) for j in range(3, 40)]
    monotone = all(b >= a for a, b in zip(counts, counts[1:]))
    return [
        CheckResult("sandwich brackets exact CDF (m<=4)", violation, hi=0.0),
        CheckResult("log upper bound + rate exponent bounded",
                    goldens.left_tail_log_gap_max(range(5, 31, 5)),
                    golden - 0.01 * golden, min(3.0, golden + 0.01 * golden), relative=True),
        CheckResult("critical term count non-decreasing", float(monotone), lo=1.0),
    ]


def suite_extremes(master_seed: int = 42) -> list[CheckResult]:
    params = ModelParams(2, 1.0)
    n_max = 12
    sweep = sweep_replicas(params, n_max, [SeedSpec(master_seed, r) for r in range(400)])
    taus, kmins = sweep.tau[:, n_max], sweep.k_min[:, n_max]
    limit_mean = -math.log(qpochhammer_limit(params.q)) + np.euler_gamma
    median = float(np.median(-np.log(kmins)))
    return [
        CheckResult("KS vs limit law (n=12)", ks_gumbel(taus, params.q).statistic, hi=0.12),
        CheckResult.near("centred maximum mean vs limit", float(taus.mean()), limit_mean, 0.15),
        CheckResult.near("min leaf median vs center (n=12)", median,
                         min_leaf_center(params, n_max), 0.9),
    ]


def suite_pointprocess(master_seed: int = 42) -> list[CheckResult]:
    params = ModelParams(2, 1.0)
    seeds = [SeedSpec(master_seed, r) for r in range(500)]
    # every check below counts points at or above 0 only
    sweep = sweep_replicas(params, 13, seeds, floor=0.0, point_generations=(12, 13))
    pts_12, pts_13 = sweep.points[12], sweep.points[13]
    report = intensity_profile(pts_12, [(0.0, math.inf)], params.q)[0]
    corr = generation_count_correlation(pts_12, pts_13).correlation
    return [
        CheckResult.near("mean count above 0 vs intensity", report.mean_count,
                         report.expected, 0.1, relative=True),
        CheckResult("count dispersion near Poisson", report.dispersion, 0.7, 1.3),
        CheckResult.near("cross-generation count correlation", corr, 0.0, 0.15),
    ]


def suite_coverage(master_seed: int = 42) -> list[CheckResult]:
    rate = goldens.largest_coverage_rate(math.e**9, 30, master_seed)
    checks = [CheckResult("largest window coverage", rate, lo=0.85)]
    if master_seed == 42:
        conc, _ = goldens.min_concentration_sample(master_seed)
        checks += [
            CheckResult.near("coverage matches recorded golden", rate,
                             goldens.COVERAGE_RATE_VERIFY, 0.05),
            CheckResult.near("min concentration matches recorded golden", conc,
                             goldens.MIN_CONCENTRATION_RATE, 0.05),
        ]
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
    # checked here, as SeedSpec checks it, so no suite runs on a bad seed
    check_int("master_seed", master_seed, below=1 << 64, error=SpecError)
    if name == "all":
        return [res for suite in _SUITE_FUNCS.values() for res in suite(master_seed)]
    if name not in _SUITE_FUNCS:
        raise SpecError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCS[name](master_seed)
