"""Independent oracles for the exact-law and BRW sampler tests.

The BRW oracles draw frame by frame, allocating each frame, with the
recurrence the package's batched kernel must reproduce draw for draw: one
replica per stream, or all replicas from one stream. For the exact laws, two routes that share no code or formula with the
package:

* high-precision partial fractions for a sum of independent exponentials
  with distinct rates (mpmath, 60 digits), and
* iterated numerical convolution of the component densities with
  tolerance-refined Gauss-Legendre panels on a spline-interpolated grid.

The convolution route never uses a closed form beyond exp(-t) for a single
exponential; the partial-fractions route evaluates rate products directly
without any q-product identity.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf
from scipy.interpolate import CubicSpline

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
