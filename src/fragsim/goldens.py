"""Recorded golden values for bound constants and seeded Monte Carlo rates,
each next to the function that computes it.

The underlying statements assert only that certain ratios stay bounded, so
the observed constants on the fixed parameter grids below are fitted once,
recorded here, and re-asserted thereafter within the tolerance each caller
states. ``fragsim verify``, the tests and the regeneration utility all call
the functions below, so each statistic is defined once.

Monte Carlo rates are ratios of hit counts from runs under master seed 42,
so rerunning the same configuration reproduces them exactly. The fitted
constants are maxima of floating-point expressions and reproduce only up to
rounding. The envelope statistic multiplies the survival's rounding error by
about phi * e^(t/q): at q=0.5 the perpetuity limit's own abs_error maps to
+-1.5e-4 in the statistic at t=12 and to more than 1 at t >= 18, so the
q=0.5 entries are rounding-limited and only the 1 percent check on them
means anything.

Regenerate with: python -m fragsim.goldens
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .brw import ReplicaSweep, sweep_replicas
from .gillespie import gillespie_run
from .laws import perpetuity_density, perpetuity_survival, perpetuity_survival_limit
from .lefttail import critical_term_count, left_tail_exponent, log_left_tail_upper
from .params import ModelParams
from .predictors import min_leaf_center, solve_min_leaf_center
from .qseries import qpochhammer
from .seeds import SeedSpec
from .stats import largest_window_coverage, min_concentration

_P21 = ModelParams(2, 1.0)


def envelope_max(q: float, n: int | None) -> float:
    """max over t in [2, 20] step 0.5 of |survival * phi_n * e^t - 1| *
    e^((1/q-1)t); n=None means the perpetuity limit. Tolerance: 1 percent
    relative."""
    phi = qpochhammer(q, 400 if n is None else n)
    worst = 0.0
    for t in np.arange(2.0, 20.0 + 1e-9, 0.5):
        t = float(t)
        if n is None:
            surv = perpetuity_survival_limit(q, t).value
        else:
            surv = perpetuity_survival(q, n, t).value
        stat = abs(surv * phi * math.exp(t) - 1.0) * math.exp((1.0 / q - 1.0) * t)
        worst = max(worst, stat)
    return worst


ENVELOPE_MAX: dict[tuple[float, int | None], float] = {
    (0.5, 5): 0.9687500428725134,
    (0.5, 20): 0.9999991057768058,
    (0.5, None): 0.9999999999662418,
    (0.8, 5): 2.683832097233322,
    (0.8, 20): 3.9405148663023915,
    (0.8, None): 3.986278153935906,
}


def crude_density_max(q: float) -> float:
    """max over t in [0, 20] step 0.25, n in {1..6, 12, 20} of
    density * e^t."""
    return max(
        perpetuity_density(q, n, float(t)).value * math.exp(t)
        for n in (1, 2, 3, 4, 5, 6, 12, 20)
        for t in np.arange(0.0, 20.0 + 1e-9, 0.25)
    )


CRUDE_DENSITY_MAX: dict[float, float] = {
    0.3: 1.6322582433456045,
    0.5: 3.4627433028491206,
    0.8: 274.09534565565207,
}


def left_tail_log_gap_max(js: Iterable[int]) -> float:
    """max over s = e^-j, j in js, of |log(upper(m(s))) + F(s)| at q=0.5,
    with m(s) the critical term count. LEFT_TAIL_LOG_GAP_MAX is its value
    on j = 5, 10, ..., 30."""
    gaps = []
    for j in js:
        s = math.exp(-j)
        m = critical_term_count(0.5, s)
        gaps.append(abs(log_left_tail_upper(0.5, m, s) + left_tail_exponent(0.5, s)))
    return max(gaps)


LEFT_TAIL_LOG_GAP_MAX: float = 1.950769330061643


def center_gap_fit() -> float:
    """max over n in {100, 1000, 10000, 100000} of |z_n - w_n| *
    sqrt(n)/log(n), k=2, alpha=1."""
    return max(
        abs(solve_min_leaf_center(_P21, n) - min_leaf_center(_P21, n))
        * math.sqrt(n)
        / math.log(n)
        for n in (100, 1000, 10_000, 100_000)
    )


CENTER_GAP_FIT: float = 0.48558058802852694


def largest_coverage_rate(t_end: float, replicas: int, master_seed: int) -> float:
    """largest-fragment window coverage pooled over replicas 0..replicas-1
    of the event-driven engine, k=2 alpha=1, burn-in 0.1, probe ratio 1.05.

    COVERAGE_RATE_FULL is t_end=e^12 with 100 replicas, and
    COVERAGE_RATE_VERIFY is t_end=e^9 with 30 replicas, both under master
    seed 42.
    """
    probes = hits = 0
    for r in range(replicas):
        cov = largest_window_coverage(
            gillespie_run(_P21, t_end, SeedSpec(master_seed, r)), _P21
        )
        probes += cov.probes
        hits += cov.hits
    return hits / probes


COVERAGE_RATE_FULL: float = 1.0

COVERAGE_RATE_VERIFY: float = 1.0


def min_concentration_sample(master_seed: int) -> tuple[float, ReplicaSweep]:
    """min_concentration rate over all generations 2..20 of the sweep,
    k=2 alpha=1, n_max=20, 200 replicas, slack 0.5; MIN_CONCENTRATION_RATE
    is recorded under master seed 42.

    Returns the rate and the sweep, so that callers can check more on the
    same sample.
    """
    sweep = sweep_replicas(_P21, 20, [SeedSpec(master_seed, r) for r in range(200)])
    return min_concentration(sweep.k_min, _P21).rate, sweep


MIN_CONCENTRATION_RATE: float = 0.7868421052631579


def _main() -> None:  # pragma: no cover - regeneration utility
    for key in ENVELOPE_MAX:
        print(f"ENVELOPE_MAX[{key}] = {envelope_max(*key)!r}")
    for q in CRUDE_DENSITY_MAX:
        print(f"CRUDE_DENSITY_MAX[{q}] = {crude_density_max(q)!r}")
    print(f"LEFT_TAIL_LOG_GAP_MAX = {left_tail_log_gap_max(range(5, 31, 5))!r}")
    print(f"CENTER_GAP_FIT = {center_gap_fit()!r}")
    print(f"COVERAGE_RATE_FULL = {largest_coverage_rate(math.e**12, 100, 42)!r}")
    print(f"COVERAGE_RATE_VERIFY = {largest_coverage_rate(math.e**9, 30, 42)!r}")
    print(f"MIN_CONCENTRATION_RATE = {min_concentration_sample(42)[0]!r}")


if __name__ == "__main__":  # pragma: no cover
    _main()
