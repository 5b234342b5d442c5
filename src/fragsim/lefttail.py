"""Left-tail machinery for the exponential perpetuity partial sums.

The probability that the depth-weighted sum ``sum_{i<n} q^i W_i`` falls below
a small ``s`` decays faster than any power of ``s``. The functions here give
the sharp rate exponent, a two-sided simplex-volume sandwich for the exact
probability, and the critical number of terms at which the sandwich is tight.
All products are evaluated in log space: the critical term count can exceed
50 on the grids of interest, so factorials and q-powers overflow otherwise.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_int, check_real
from .params import as_kappa, as_q, left_tail_constant

# log log(1/s) must be positive, hence the hard domain cut at 1/e^2.
S_MAX = math.exp(-2.0)


def _checked_log_terms(s: float) -> tuple[float, float]:
    check_real("s", s, positive=True)
    if s > S_MAX:
        raise DomainError(f"s must lie in (0, 1/e^2], got {s!r}")
    big_s = math.log(1.0 / s)
    return big_s, math.log(big_s)


def left_tail_exponent(q_or_params, s: float) -> float:
    """Rate exponent F(s) with P(sum <= s) = exp(-F(s)) up to bounded factors.

    F(s) = (kappa/2) * (S + log S + A(kappa))^2 + (1/2 + kappa) * log S

    with S = log(1/s) and A = params.left_tail_constant. Strictly positive
    and increasing as s decreases to 0.
    """
    kappa = as_kappa(q_or_params)
    big_s, loglog = _checked_log_terms(s)
    core = big_s + loglog + left_tail_constant(kappa)
    return 0.5 * kappa * core * core + (0.5 + kappa) * loglog


def critical_term_count(q_or_params, s: float) -> int:
    """Least integer strictly greater than kappa*(log(1/s) + log log(1/s)).

    This is the term count m at which the simplex upper bound matches the
    exp(-F(s)) rate; non-decreasing as s decreases.
    """
    kappa = as_kappa(q_or_params)
    big_s, loglog = _checked_log_terms(s)
    return math.floor(kappa * (big_s + loglog)) + 1


def left_tail_sandwich(q: float, m: int, s: float) -> tuple[float, float]:
    """Two-sided bounds on P(sum of the first m terms <= s).

    Returns (lower, upper) with
        upper = s^m q^{-m(m-1)/2} / m!
        lower = upper * exp(-s q^{-m} / ((1/q - 1) m))
    The upper bound is the volume of the s-scaled simplex weighted by the
    largest density value; it is not clamped to [0, 1].
    """
    q = as_q(q)
    check_int("m", m, 1)
    check_real("s", s, least=0.0)
    if s == 0.0:
        return (0.0, 0.0)
    log_upper = log_simplex_upper(q, m, math.log(s))
    # s * q^{-m} may overflow for large m; compute the penalty in log space too.
    log_penalty = math.log(s) - m * math.log(q) - math.log((1.0 / q - 1.0) * m)
    penalty = math.exp(log_penalty) if log_penalty < 700.0 else math.inf
    upper = math.exp(log_upper) if log_upper < 700.0 else math.inf
    lower = math.exp(log_upper - penalty) if penalty < math.inf else 0.0
    return (lower, upper)


def log_left_tail_upper(q: float, m: int, s: float) -> float:
    """log of the simplex upper bound, usable when the bound itself underflows."""
    q = as_q(q)
    check_int("m", m, 1)
    check_real("s", s, positive=True)
    return log_simplex_upper(q, m, math.log(s))


def log_simplex_upper(q: float, m: int, log_s: float) -> float:
    """Unchecked log of the simplex upper bound s^m q^{-m(m-1)/2} / m!, from
    log s so that s itself may underflow."""
    return m * log_s - 0.5 * m * (m - 1) * math.log(q) - math.lgamma(m + 1)


def stirling_exponent(x: float, y: float, kappa: float) -> float:
    """f(x, y) = y^2/(2 kappa) - (log(1/x) - 1 + 1/(2 kappa)) y - (y + 1/2) log y.

    Stirling-form exponent of the simplex upper bound: for integer m,
    |f(s, m) - log(upper)| is at most the Stirling envelope constant 1.
    Raises DomainError where f is not a finite float.
    """
    check_real("x", x, positive=True)
    check_real("y", y, positive=True)
    check_real("kappa", kappa, positive=True)
    f = (
        y * y / (2.0 * kappa)
        - (math.log(1.0 / x) - 1.0 + 1.0 / (2.0 * kappa)) * y
        - (y + 0.5) * math.log(y)
    )
    if not math.isfinite(f):
        raise DomainError(f"stirling_exponent is not finite at x={x!r}, y={y!r}, kappa={kappa!r}")
    return f
