"""Independent oracles for the exact-law and BRW sampler tests, and the
tests' own estimators.

The BRW oracles draw frame by frame, allocating each frame, with the
recurrence the package's batched kernel must reproduce draw for draw: one
replica per stream, or all replicas from one stream. The estimators the
acceptance tests sample are here too: ``spine_sum_samples`` draws the
spine's q^n S_n, and ``factorial_moment_samples`` counts tuples on whole
small trees drawn by ``tree_matrices_oracle``. For the exact laws, two
routes that share no code or formula with the package:

* high-precision partial fractions for a sum of independent exponentials
  with distinct rates (mpmath, 60 digits), and
* iterated numerical convolution of the component densities with
  tolerance-refined Gauss-Legendre panels on a spline-interpolated grid.

The convolution route never uses a closed form beyond exp(-t) for a single
exponential; the partial-fractions route evaluates rate products directly
without any q-product identity.

A third route, the term-by-term references ``series_reference`` and
``limit_reference``, shares the package's formula on purpose: it forms every
term of the alternating series afresh, with the same float operations in the
same order, and sums them with a plain Neumaier loop. It pins the package's
cached term tables bit for bit.
"""

from __future__ import annotations

import numpy as np
import math

from mpmath import mp, mpf
from scipy.interpolate import CubicSpline

from fragsim.laws import _EPS, _TERM_ULPS, LIMIT_SERIES_TOL
from fragsim.qseries import qpochhammer_limit

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# exp(-u) beyond this carries less mass than any tolerance used here
_U_CUT = 45.0


def _rates(q: float, n: int) -> list:
    return [mpf(q) ** (-i) for i in range(n + 1)]


def hypoexp_survival_mp(q: float, n: int, t: float, dps: int = 60) -> mpf:
    """P(sum q^i W_i > t) by partial fractions over the distinct rates."""
    with mp.workdps(dps):
        rates = _rates(q, n)
        total = mpf(0)
        for j, rj in enumerate(rates):
            coeff = mpf(1)
            for k, rk in enumerate(rates):
                if k != j:
                    coeff *= rk / (rk - rj)
            total += coeff * mp.e ** (-rj * mpf(t))
        return total


def hypoexp_cdf_mp(q: float, n: int, t: float, dps: int = 60) -> mpf:
    with mp.workdps(dps):
        return mpf(1) - hypoexp_survival_mp(q, n, t, dps)


def hypoexp_density_mp(q: float, n: int, t: float, dps: int = 60) -> mpf:
    with mp.workdps(dps):
        rates = _rates(q, n)
        total = mpf(0)
        for j, rj in enumerate(rates):
            coeff = mpf(1)
            for k, rk in enumerate(rates):
                if k != j:
                    coeff *= rk / (rk - rj)
            total += coeff * rj * mp.e ** (-rj * mpf(t))
        return total


def neumaier(terms) -> tuple[float, float]:
    """Compensated sum; returns (sum, sum of |terms|) for error budgeting."""
    total = 0.0
    comp = 0.0
    absum = 0.0
    for term in terms:
        absum += abs(term)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp, absum


def _clamp(value: float, abs_error: float) -> tuple[float, float]:
    return min(max(value, 0.0), 1.0), max(abs_error, 0.0)


def series_reference(q: float, n: int, t: float, shift: int, stop: bool = True):
    """(value, abs_error) of the finite-n survival (shift=0) or density
    (shift=1) series, term by term. With ``stop`` the sum ends at the first
    zero exponential, as the package does; without it all n+1 terms are
    added."""
    phis, qj = [1.0], 1.0  # (q;q)_0, ..., (q;q)_n
    for _ in range(n):
        qj *= q
        phis.append(phis[-1] * (1.0 - qj))
    sign, qpow, rate = 1.0, 1.0, 1.0
    terms = []
    for j in range(n + 1):
        ex = math.exp(-rate * t) if t > 0.0 else 1.0
        if stop and ex == 0.0:
            break
        terms.append(sign * qpow * ex / (phis[j] * phis[n - j]))
        sign = -sign
        qpow *= q ** (j + 1 - shift)
        rate /= q
    value, absum = neumaier(terms)
    return _clamp(value, _TERM_ULPS * _EPS * absum + _EPS)


def limit_reference(q: float, t: float, stop: bool = True):
    """(value, abs_error) of the full-perpetuity survival at t > 0, term by
    term down to the LIMIT_SERIES_TOL cutoff; ``stop`` as in
    ``series_reference``."""
    phi_inf = qpochhammer_limit(q)
    cutoff = LIMIT_SERIES_TOL * phi_inf
    sign, qpow, rate, phi_j, j = 1.0, 1.0, 1.0, 1.0, 0
    terms = []
    while j == 0 or qpow / phi_j >= cutoff:
        ex = math.exp(-rate * t)
        if stop and ex == 0.0:
            break
        terms.append(sign * qpow * ex / phi_j)
        sign = -sign
        j += 1
        qpow *= q**j
        phi_j *= 1.0 - q**j
        rate /= q
    value, absum = neumaier(terms)
    err = (_TERM_ULPS * _EPS * absum + cutoff / (1.0 - q)) / phi_inf + _EPS
    return _clamp(value / phi_inf, err)


class ConvolutionSurvival:
    """Survival of sum_{i<=n} q^i W_i by iterated numerical convolution.

    Level m tabulates the survival of the partial sum through q^m W_m on
    [0, t_max] as a cubic spline; level m+1 integrates
    exp(-u) * S_m(t - q^(m+1) u) du with Gauss-Legendre panels whose count
    doubles until two refinements agree to ``tol``. The requested point is
    evaluated directly from the last inner level, not read off a spline.
    """

    def __init__(
        self,
        q: float,
        n: int,
        t_max: float = 6.0,
        grid_step: float = 0.002,
        tol: float = 1e-10,
    ):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.q = q
        self.n = n
        self.t_max = t_max
        self.tol = tol
        self._grid = np.arange(0.0, t_max + grid_step, grid_step)
        inner = None  # spline of the previous level; None stands for exp(-t)
        for m in range(1, n):
            values = self._convolve_level(inner, m, self._grid)
            inner = CubicSpline(self._grid, values)
        self._inner = inner

    def _eval_prev(self, level, args: np.ndarray) -> np.ndarray:
        if level is None:
            out = np.exp(-np.maximum(args, 0.0))
        else:
            out = level(np.clip(args, 0.0, self.t_max))
        return np.where(args <= 0.0, 1.0, out)

    def _convolve_level(self, level, m: int, ts: np.ndarray) -> np.ndarray:
        qm = self.q**m
        rate = 1.0 / qm
        u_max = np.minimum(ts * rate, _U_CUT)
        result = np.exp(-np.minimum(ts * rate, 700.0))
        panels = 8
        prev = None
        while True:
            integral = np.zeros_like(ts)
            edges = np.linspace(0.0, 1.0, panels + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid = 0.5 * (lo + hi)
                half = 0.5 * (hi - lo)
                for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                    xi = mid + half * node
                    u = u_max * xi
                    vals = self._eval_prev(level, ts - qm * u)
                    integral += weight * half * u_max * np.exp(-u) * vals
            if prev is not None and np.max(np.abs(integral - prev)) < self.tol:
                break
            if panels >= 256:
                break
            prev = integral
            panels *= 2
        return result + integral

    def survival(self, t: float) -> float:
        if self.n == 0:
            return float(np.exp(-t))
        ts = np.asarray([t], dtype=float)
        return float(self._convolve_level(self._inner, self.n, ts)[0])

    def __call__(self, t: float) -> float:
        return self.survival(t)


def brw_frames_oracle(k: int, q: float, n_max: int, rng) -> list[np.ndarray]:
    """Generations 0..n_max of one BRW replica, each a fresh array.

    The generation-n frame takes k^n draws from ``rng`` in leaf order; the
    children of parent p occupy slots p*k .. p*k+k-1 and equal q times the
    parent plus their own draw.
    """
    frame = rng.standard_exponential(1)
    frames = [frame]
    for _ in range(n_max):
        parent = frame * q
        frame = rng.standard_exponential(k * parent.size)
        for j in range(k):
            frame[j::k] += parent
        frames.append(frame)
    return frames


def tree_matrices_oracle(k: int, q: float, n_max: int, replicas: int, rng) -> list[np.ndarray]:
    """Generations 0..n_max of ``replicas`` BRW replicas from one stream: each
    generation is one (replicas, k^n) draw, added to q times the repeated
    parents."""
    gen = rng.standard_exponential((replicas, 1))
    out = [gen]
    for n in range(1, n_max + 1):
        gen = q * np.repeat(gen, k, axis=1) + rng.standard_exponential((replicas, k**n))
        out.append(gen)
    return out


def brw_summary_oracle(frame: np.ndarray, n: int, gamma: float, floor: float):
    """(k_min, k_max, tau, points) of one generation-n frame: the centred
    points J = value - gamma*n with J >= floor, sorted ascending."""
    shift = gamma * n
    k_max = float(frame.max())
    points = np.sort(frame[frame >= floor + shift] - shift)
    return float(frame.min()), k_max, k_max - shift, points


def spine_sum_samples(params, n: int, replicas: int, seed) -> np.ndarray:
    """``replicas`` samples of q^n S_n = sum_i q^(n-i) W_i from ``seed``'s
    stream, one row of n + 1 draws each."""
    w = seed.rng().standard_exponential((replicas, n + 1))
    weights = params.q ** (n - np.arange(n + 1, dtype=float))
    return w @ weights


def _ordered_tuple_count(values: np.ndarray, thresholds) -> int:
    """Ordered tuples of distinct points with point j above thresholds[j].

    With thresholds sorted descending, the j-th pick comes from the
    exceedance set of the j-th threshold minus the j picks already made;
    the sets are nested, so the product below counts exactly.
    """
    count = 1
    for j, thr in enumerate(sorted(thresholds, reverse=True)):
        avail = int(np.count_nonzero(values > thr)) - j
        if avail <= 0:
            return 0
        count *= avail
    return count


def factorial_moment_samples(params, n: int, thresholds, replicas: int, seed) -> np.ndarray:
    """Per-replica products of ordered distinct-tuple counts.

    thresholds[i] lists the levels for generation n+i; the replica value is
    the product over generations of the ordered tuple counts of centred
    points exceeding those levels. The trees, to generation
    n + len(thresholds) - 1, come from tree_matrices_oracle on ``seed``'s
    stream, so keep k^(n + len(thresholds)) small.
    """
    gens = tree_matrices_oracle(
        params.k, params.q, n + len(thresholds) - 1, replicas, seed.rng()
    )
    out = np.ones(replicas, dtype=float)
    for i, levels in enumerate(thresholds):
        if not len(levels):
            continue
        centred = gens[n + i] - params.gamma * (n + i)
        for r in range(replicas):
            out[r] *= _ordered_tuple_count(centred[r], levels)
    return out
