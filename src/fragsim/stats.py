"""Statistical reductions of simulator output against the analytic laws.

Every function here is a pure reduction of its input samples; nothing draws
randomness except the tuple-moment estimator, which is handed an explicit
SeedSpec. Acceptance numbers probed against limit laws are golden values:
computed once under a recorded seed and re-asserted within a stored
tolerance thereafter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .brw import tree_matrices
from .errors import DomainError
from .gillespie import GillespieTrajectory
from .params import ModelParams
from .predictors import (
    PredictorWindow,
    largest_depth_window,
    min_leaf_center,
    smallest_depth_window,
)
from .qseries import qpochhammer_limit
from .seeds import SeedSpec

# Coverage probes t_end/10 * 1.05^i up to t_end; the first tenth is burn-in.
BURN_IN_FRACTION = 0.1
PROBE_RATIO = 1.05
CONCENTRATION_SLACK = 0.5


@dataclass(frozen=True)
class KSReport:
    """Sup-norm distance between an empirical CDF and a reference CDF."""

    statistic: float
    sample_size: int
    reference: str


@dataclass(frozen=True)
class IntervalCountReport:
    interval: tuple[float, float]
    mean_count: float
    var_count: float
    expected: float

    @property
    def dispersion(self) -> float:
        """var/mean; 1 for a Poisson count."""
        return self.var_count / self.mean_count if self.mean_count > 0 else math.nan


@dataclass(frozen=True)
class CoverageReport:
    probes: int
    hits: int

    @property
    def rate(self) -> float:
        return self.hits / self.probes if self.probes else math.nan


@dataclass(frozen=True)
class CorrelationReport:
    correlation: float
    stderr: float
    replicas: int


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance at the sample points (samples sorted)."""
    n = samples.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - cdf_values), np.max(cdf_values - grid_lo)))


def ks_gumbel(tau_samples: Sequence[float], q: float) -> KSReport:
    """KS distance between centred-maximum samples and the limit law
    exp(-exp(-s)/phi_inf(q))."""
    samples = np.sort(np.asarray(tau_samples, dtype=float))
    if samples.size < 100:
        raise DomainError(f"need at least 100 samples, got {samples.size}")
    phi = qpochhammer_limit(q)
    ref = np.exp(-np.exp(-samples) / phi)
    return KSReport(
        statistic=ks_statistic(samples, ref),
        sample_size=int(samples.size),
        reference=f"exp(-exp(-s)/{phi:.12g})",
    )


def intensity_profile(
    point_samples: Sequence[Sequence[float]],
    intervals: Sequence[tuple[float, float]],
    q: float,
) -> list[IntervalCountReport]:
    """Per-interval count statistics across replicas vs the exponential
    intensity exp(-s)/phi_inf(q).

    expected is the integral of the intensity over the interval; a Poisson
    limit shows up as dispersion var/mean near 1.
    """
    if not len(point_samples):
        raise DomainError("point_samples must contain at least one replica")
    phi = qpochhammer_limit(q)
    los = np.array([lo for lo, _ in intervals], dtype=float)
    his = np.array([hi for _, hi in intervals], dtype=float)
    # counts[i, r] is the number of points of replica r in [lo_i, hi_i)
    counts = np.empty((len(intervals), len(point_samples)))
    for r, pts in enumerate(point_samples):
        values = np.sort(np.asarray(pts, dtype=float))
        counts[:, r] = np.searchsorted(values, his) - np.searchsorted(values, los)
    out = []
    for (lo, hi), row in zip(intervals, counts):
        e_hi = 0.0 if math.isinf(hi) else math.exp(-hi)
        expected = (math.exp(-lo) - e_hi) / phi
        out.append(
            IntervalCountReport(
                interval=(lo, hi),
                mean_count=float(row.mean()),
                var_count=float(row.var(ddof=1)) if row.size > 1 else 0.0,
                expected=expected,
            )
        )
    return out


def _ordered_tuple_count(values: np.ndarray, thresholds: Sequence[float]) -> int:
    """Ordered tuples of distinct points with point j above thresholds[j].

    With thresholds sorted descending, the j-th pick comes from the
    exceedance set of the j-th threshold minus the j picks already made;
    the sets are nested, so the product below counts exactly.
    """
    desc = sorted(thresholds, reverse=True)
    count = 1
    for j, thr in enumerate(desc):
        avail = int(np.count_nonzero(values > thr)) - j
        if avail <= 0:
            return 0
        count *= avail
    return count


def factorial_moment_samples(
    params: ModelParams,
    n: int,
    thresholds: Sequence[Sequence[float]],
    replicas: int,
    seed: SeedSpec,
) -> np.ndarray:
    """Per-replica products of ordered distinct-tuple counts.

    thresholds[i] lists the levels for generation n+i; the replica value is
    the product over generations of the ordered tuple counts of centred
    points exceeding those levels. Full-tree enumeration, so the guard
    k^(n+len(thresholds)) <= 4096 keeps this brute-force honest.
    """
    ell = len(thresholds)
    if ell < 1:
        raise DomainError("thresholds must list at least one generation")
    if params.k ** (n + ell) > 4096:
        raise DomainError(
            f"k^(n+l) = {params.k ** (n + ell)} exceeds the 4096 full-tree cap"
        )
    gens = tree_matrices(params, n + ell - 1, replicas, seed)
    out = np.ones(replicas, dtype=float)
    for i, levels in enumerate(thresholds):
        if not len(levels):
            continue
        centred = gens[n + i] - params.gamma * (n + i)
        for r in range(replicas):
            out[r] *= _ordered_tuple_count(centred[r], levels)
    return out


def largest_window_coverage(
    trajectory: GillespieTrajectory, params: ModelParams
) -> CoverageReport:
    """Fraction of geometric probe times whose largest-fragment depth lies in
    the predictor window [lo_int, hi_int]."""
    return _window_coverage(trajectory, params, largest_depth_window, 0)


def smallest_window_coverage(
    trajectory: GillespieTrajectory, params: ModelParams
) -> CoverageReport:
    return _window_coverage(trajectory, params, smallest_depth_window, 1)


def _window_coverage(
    trajectory: GillespieTrajectory,
    params: ModelParams,
    window: Callable[[ModelParams, float], PredictorWindow],
    index: int,
) -> CoverageReport:
    """Probe loop shared by the two coverages; index picks m_t (0) or M_t (1)
    out of the trajectory's (m_t, M_t) value."""
    t0 = BURN_IN_FRACTION * trajectory.t_end
    if t0 <= math.e:
        raise DomainError(
            f"burn-in start {t0!r} must exceed e for the windows to be defined"
        )
    count = int(math.floor(math.log(trajectory.t_end / t0) / math.log(PROBE_RATIO))) + 1
    probes = t0 * PROBE_RATIO ** np.arange(count)
    hits = 0
    for t in probes:
        depth = trajectory.value_at(float(t))[index]
        if window(params, float(t)).covers(depth):
            hits += 1
    return CoverageReport(probes=probes.size, hits=hits)


def min_concentration(k_min: np.ndarray, params: ModelParams) -> CoverageReport:
    """Fraction of (replica, n >= 2) entries of the (replicas, n_max + 1)
    array ``k_min`` with -log(k_min) within n^(-1/3) + CONCENTRATION_SLACK
    of the concentration center.

    n = 0, 1 are excluded as pre-asymptotic. The slack absorbs the
    O(log n / sqrt n) gap between the expansion center and the exact one at
    desk-scale n. The logs and powers are Python's, not numpy's: the two
    differ in the last bit on some inputs, which can move a hit.
    """
    replicas, generations = k_min.shape
    hits = 0
    for n in range(2, generations):
        center = min_leaf_center(params, n)
        half = n ** (-1.0 / 3.0) + CONCENTRATION_SLACK
        hits += sum(abs(-math.log(x) - center) <= half for x in k_min[:, n].tolist())
    return CoverageReport(probes=replicas * max(generations - 2, 0), hits=hits)


def generation_count_correlation(
    points_a: Sequence[Sequence[float]], points_b: Sequence[Sequence[float]]
) -> CorrelationReport:
    """Empirical correlation across replicas between the counts of
    non-negative points in two generations."""
    if len(points_a) != len(points_b):
        raise DomainError("replica lists must have equal length")
    if len(points_a) < 2:
        raise DomainError("need at least 2 replicas for a correlation")
    counts_a, counts_b = (
        np.array([np.count_nonzero(np.asarray(p, dtype=float) >= 0.0) for p in pts])
        for pts in (points_a, points_b)
    )
    r = len(points_a)
    if counts_a.std() == 0.0 or counts_b.std() == 0.0:
        corr = 0.0 if not np.array_equal(counts_a, counts_b) else 1.0
    else:
        corr = float(np.corrcoef(counts_a, counts_b)[0, 1])
    return CorrelationReport(
        correlation=corr, stderr=1.0 / math.sqrt(r - 1), replicas=r
    )
