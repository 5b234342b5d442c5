"""Deterministic predictors and integer windows for the extreme fragments.

Two families of functions. The depth predictors map a time t to the real
center around which the depth of the largest (resp. smallest) fragment
concentrates, with a shrinking window; windows use the strict ceiling
(least integer strictly greater) throughout. The envelope inverses, and
the exact min-leaf center z_n, solve their monotone equations by one
bisection; asymptotic expansions are deliberately not used for inversion,
only as test oracles, because their error terms have no computable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, check_int, check_real
from .params import ModelParams, left_tail_constant


def ceil_strict(x: float) -> int:
    """Least integer strictly greater than x (so ceil_strict(3.0) == 4)."""
    check_real("x", x)
    return math.floor(x) + 1


@dataclass(frozen=True)
class PredictorWindow:
    """Integer window [lo_int, hi_int] around a real center.

    lo_int and hi_int are strict ceilings of center -/+ half_width; for
    arguments large enough that 2*half_width < 1 they are equal or adjacent.
    """

    lo_int: int
    hi_int: int
    center: float
    half_width: float

    @classmethod
    def from_center(cls, center: float, half_width: float) -> "PredictorWindow":
        check_real("center", center)
        check_real("half_width", half_width, least=0.0)
        return cls(
            lo_int=ceil_strict(center - half_width),
            hi_int=ceil_strict(center + half_width),
            center=center,
            half_width=half_width,
        )

    def covers(self, value: int) -> bool:
        return self.lo_int <= value <= self.hi_int


def _check_time(t: float) -> None:
    check_real("t", t)
    if t <= math.e:
        raise DomainError(f"t must exceed e so that log log t > 0, got {t!r}")


def largest_depth_center(params: ModelParams, t: float) -> float:
    """kappa * (log t - log log t - log(gamma*kappa)); depth scale of the
    largest fragment at time t."""
    _check_time(t)
    lt = math.log(t)
    return params.kappa * (lt - math.log(lt) - math.log(params.gamma * params.kappa))


def mu_largest(params: ModelParams) -> float:
    return params.kappa + 2.0 / params.gamma


def largest_depth_window(params: ModelParams, t: float) -> PredictorWindow:
    """Window of half-width (kappa + 2/gamma) * log log t / log t around the
    largest-depth center."""
    center = largest_depth_center(params, t)
    lt = math.log(t)
    return PredictorWindow.from_center(center, mu_largest(params) * math.log(lt) / lt)


def _center_constant(params: ModelParams) -> float:
    """C = A(kappa) - log(kappa)/2 + log(2 gamma)/2, the O(1) term of w."""
    kappa = params.kappa
    return left_tail_constant(kappa) - 0.5 * math.log(kappa) + 0.5 * math.log(2.0 * params.gamma)


def _min_leaf_center(params: ModelParams, x: float) -> float:
    """w(x) = sqrt(2 gamma x / kappa) - log(x)/2 - C for real x > 0."""
    root = math.sqrt(2.0 * params.gamma * x / params.kappa)
    return root - 0.5 * math.log(x) - _center_constant(params)


def smallest_depth_shift(params: ModelParams) -> float:
    """Additive constant gamma - log(kappa)/2 - C in the smallest-depth
    predictor, from inverting x/kappa - w(x) = log t = L to O(1) with
    sqrt(2 gamma (L + sqrt(2 gamma L))) ~ sqrt(2 gamma L) + gamma."""
    return params.gamma - 0.5 * math.log(params.kappa) - _center_constant(params)


def smallest_depth_center(params: ModelParams, t: float) -> float:
    """kappa * (log t + sqrt(2 gamma log t) - log log t / 2 + shift); depth
    scale of the smallest fragment at time t.

    Above the largest-depth center for k <= 7 and alpha <= 5 (scanned in
    steps of 0.05 in alpha and 0.02 in log t on 1 < log t < 100), but not
    at large alpha: at k=3, alpha=20, t=e^20 it is 0.862 against 0.910,
    and at k=5, alpha=100 it is negative."""
    _check_time(t)
    kappa, gamma = params.kappa, params.gamma
    lt = math.log(t)
    return kappa * (
        lt
        + math.sqrt(2.0 * gamma * lt)
        - 0.5 * math.log(lt)
        + smallest_depth_shift(params)
    )


def mu_smallest(params: ModelParams) -> float:
    return 2.0 * params.kappa ** (2.0 / 3.0)


def smallest_depth_window(params: ModelParams, t: float) -> PredictorWindow:
    """Window of half-width 2*kappa^(2/3) / (log t)^(1/3) around the
    smallest-depth center."""
    center = smallest_depth_center(params, t)
    return PredictorWindow.from_center(
        center, mu_smallest(params) / math.log(t) ** (1.0 / 3.0)
    )


def min_leaf_center(params: ModelParams, n: int) -> float:
    """Expansion w(n) of the concentration center of -log(min leaf value)
    at generation n: sqrt(2 gamma n / kappa) - log(n)/2 - C."""
    check_int("n", n, 1)
    return _min_leaf_center(params, n)


def solve_min_leaf_center(params: ModelParams, n: int) -> float:
    """Exact center z_n: the unique root of
    z + log z + A(kappa) = sqrt(2 gamma n / kappa).

    The left side is strictly increasing on z > 0, so the root is found by
    the same bisection as the envelope inverses. With c the right side minus
    the constant, z = exp(c - z) >= exp(min(c, 1) - 1) starts the bracket.
    That start is above 1e-160 for every ModelParams: q strictly between 0
    and 1 needs 1e-16 < 1/kappa < 746, where c > 1 + log(1/kappa) -
    1/(2 kappa) > -365.
    """
    check_int("n", n, 1)
    shift = left_tail_constant(params.kappa)
    rhs = math.sqrt(2.0 * params.gamma * n / params.kappa)
    z_lo = math.exp(min(rhs - shift, 1.0) - 1.0)
    return _bisect_log_increasing(lambda z: z + math.log(z) + shift, z_lo, rhs)


def min_leaf_bracket(params: ModelParams, n: int) -> tuple[float, float]:
    """Values (s_minus, s_plus) bracketing the min leaf value at generation n:
    exp(-z -/+ log(z)^2 / z) around the exact center z. s_plus is inf where
    it exceeds the float range, which happens for small z."""
    z = solve_min_leaf_center(params, n)
    spread = math.log(z) ** 2 / z
    try:
        upper = math.exp(-z + spread)
    except OverflowError:
        upper = math.inf
    return math.exp(-z - spread), upper


def _bisect_log_increasing(log_f, x_lo: float, log_t: float) -> float:
    """Invert a strictly increasing x -> log_f(x) at log_t, x >= x_lo,
    bisecting until the midpoint rounds to an end of the bracket."""
    if log_t < log_f(x_lo):
        raise DomainError(
            f"t below the monotone regime of the envelope (needs log t >= "
            f"{log_f(x_lo):.6g} at x={x_lo:.6g})"
        )
    hi = 2.0 * x_lo
    while log_f(hi) < log_t:
        hi *= 2.0
        if hi > 1e12:
            raise ConvergenceError("no bracket found below x = 1e12")
    lo = x_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if log_f(mid) < log_t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def largest_depth_envelope_inverses(
    params: ModelParams, t: float
) -> tuple[float, float]:
    """Inverses (a_inv, b_inv) at t of the last-existence-time envelopes
    a(x) = q^-x (gamma x - log(2 log x)) and b(x) = q^-x (gamma x + 2 log x),
    by monotone bisection in log space on x >= 2. b_inv <= a_inv since
    b >= a pointwise."""
    check_real("t", t, positive=True)
    kappa, gamma = params.kappa, params.gamma

    def log_a(x: float) -> float:
        return x / kappa + math.log(gamma * x - math.log(2.0 * math.log(x)))

    def log_b(x: float) -> float:
        return x / kappa + math.log(gamma * x + 2.0 * math.log(x))

    log_t = math.log(t)
    a_inv = _bisect_log_increasing(log_a, 2.0, log_t)
    b_inv = _bisect_log_increasing(log_b, 2.0, log_t)
    return a_inv, b_inv


def smallest_depth_envelope_inverse(
    params: ModelParams, t: float, sigma: int
) -> float:
    """Inverse at t of the smallest-fragment time envelope

    log p_sigma(x) = x/kappa - w(x) + sigma x^-1/3,

    sigma in {-1, +1}, by monotone bisection above the stationary point.
    w is the min-leaf concentration center, so the inverses sandwich the
    depth of the smallest fragment.
    """
    check_int("sigma", sigma, -1, 2)
    if sigma == 0:
        raise DomainError("sigma must be -1 or +1, got 0")
    check_real("t", t, positive=True)
    kappa, gamma = params.kappa, params.gamma

    def log_p(x: float) -> float:
        return x / kappa - _min_leaf_center(params, x) + sigma * x ** (-1.0 / 3.0)

    # Start above both the stationary point of the smooth part (x = gamma
    # kappa / 2) and the scale where the sigma term's slope could flip the
    # sign of the derivative.
    x_lo = max(2.0, 1.5 * gamma * kappa, (0.631 * kappa) ** 0.75)
    h = 1e-6 * x_lo
    while log_p(x_lo + h) <= log_p(x_lo):
        x_lo *= 1.5
        h = 1e-6 * x_lo
        if x_lo > 1e9:
            raise ConvergenceError("no monotone regime found for the envelope")
    return _bisect_log_increasing(log_p, x_lo, math.log(t))
