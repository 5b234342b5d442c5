"""The evaluation grid of the ``laws`` workload.

Shared by the workload, which evaluates every case through fragsim, and by
``make_lawref.py``, which computes the mpmath reference value of every case.
Both walk ``cases()`` in the same order, so a reference is matched to its
evaluation by position within its series.

The grid is the ROADMAP's law domain: q in {0.3, 0.5, 0.8} x n in
{5, 40, 200} on t in [0, 20], the perpetuity limit per q, the tagged-depth
pmf, and the left-tail functions at s = e^-j. A small slice near q -> 1 is
kept on purpose: the alternating series is known to fail there, and the
benchmark must show that in its failure count rather than hide it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

T_GRID = (0.0, 20.0, 0.02)
MAIN_Q = (0.3, 0.5, 0.8)
MAIN_N = (5, 40, 200)
NEAR_ONE = ((0.95, 100), (0.99, 200))
NEAR_ONE_GRID = (0.0, 20.0, 0.5)
PMF_N_MAX = 40
PMF_T = (1.0, 3.0, 10.0)
LEFT_J = range(2, 41)
PERPETUITY_FNS = ("perpetuity_survival", "perpetuity_density", "perpetuity_cdf")
# One `fragsim tails` call through the CLI; its rows are checked against the
# perpetuity_survival references of the same (q, n) and grid.
TAILS = (0.5, 40, T_GRID)

# Functions returning a TailEval; every other case returns plain floats.
TAIL_EVAL_FNS = frozenset(
    PERPETUITY_FNS + ("perpetuity_survival_limit", "tagged_depth_pmf")
)


@dataclass(frozen=True)
class Series:
    """One law function evaluated over a list of argument tuples."""

    fn: str
    label: str
    args: tuple


def t_grid(lo: float, hi: float, step: float) -> list[float]:
    """The same t values ``fragsim tails --t-grid LO:HI:STEP`` tabulates."""
    return [float(t) for t in np.arange(lo, hi + step / 2, step)]


def critical_m(q: float, s: float) -> int:
    """Term count floor(kappa (log 1/s + log log 1/s)) + 1, kappa = 1/log(1/q)."""
    big_s = math.log(1.0 / s)
    return math.floor((big_s + math.log(big_s)) / math.log(1.0 / q)) + 1


def cases() -> list[Series]:
    out: list[Series] = []

    def perpetuity(q, n_values, grid):
        ts = t_grid(*grid)
        for n in n_values:
            for fn in PERPETUITY_FNS:
                out.append(Series(fn, f"q={q} n={n}", tuple((q, n, t) for t in ts)))
        out.append(
            Series("perpetuity_survival_limit", f"q={q}", tuple((q, t) for t in ts))
        )

    for q in MAIN_Q:
        perpetuity(q, MAIN_N, T_GRID)
    for q, n in NEAR_ONE:
        perpetuity(q, (n,), NEAR_ONE_GRID)
    for q in MAIN_Q:
        for t in PMF_T:
            out.append(
                Series(
                    "tagged_depth_pmf",
                    f"q={q} t={t}",
                    tuple((q, n, t) for n in range(PMF_N_MAX + 1)),
                )
            )
    for q in MAIN_Q:
        ss = [math.exp(-j) for j in LEFT_J]
        ms = [(q, critical_m(q, s), s) for s in ss]
        out.append(Series("left_tail_exponent", f"q={q}", tuple((q, s) for s in ss)))
        out.append(Series("critical_term_count", f"q={q}", tuple((q, s) for s in ss)))
        out.append(Series("left_tail_sandwich", f"q={q}", tuple(ms)))
        out.append(Series("log_left_tail_upper", f"q={q}", tuple(ms)))
    return out


def series_key(series: Series) -> str:
    return f"{series.fn} {series.label}"
