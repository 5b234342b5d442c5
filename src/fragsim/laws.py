"""Exact laws for the exponential perpetuity partial sums.

The generation-n value of the rescaled fragmentation walk is distributed as
the weighted sum ``sum_{i=0..n} q^i W_i`` of independent standard
exponentials. Its survival function has an alternating closed form whose
terms nearly cancel for small t, so every evaluation is done with
compensated (Neumaier) summation and returns a :class:`TailEval` carrying an
explicit bound on the accumulated floating-point error. When the complement
1 - survival loses more than ``REL_ERR_SWITCH`` relative accuracy to
cancellation, the CDF is recomputed from the two-sided simplex sandwich and
the sandwich half-width is reported as the error.

Term j of each series is ``num_j * exp(-rate_j t) / den_j``, and only the
exponential depends on t. The (num, rate, den) triples are therefore built
once per (q, n) for the finite-n survival and density, and once per q for
the full perpetuity, and cached as immutable tuples, so a t grid pays for
them once. A finite-n table ends at its last numerator q^{j(j+1)/2 - j shift}
that is not 0.0: the q-power stays 0.0 once it underflows, so every later
term is +-0.0 at every t, t = 0 included. Its length is therefore bounded by
q whatever n is: 46 survival rows at q = 0.5, 170 at 0.95, 385 at 0.99 (one
more for the density). Every law then runs one loop, ``_sum_terms``, that
forms each term with the same float operations in the same order as a
term-by-term evaluation and adds it into the compensated sum.

That loop stops at the first term whose exponential ``exp(-q^{-j} t)`` is
exactly 0.0. For t > 0 the rate q^{-j} only grows with j, so every later
term is +-0.0 as well. Adding +-0.0 leaves both the compensated sum and the
sum of |terms| bit-for-bit unchanged, so neither stop changes a value or an
error bound; they only skip work. At q = 0.5 and n = 200 it leaves 6 to 16
of the 201 terms on t in [0.02, 20].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, check_int, check_real
from .lefttail import left_tail_sandwich, log_simplex_upper
from .params import as_q
from .qseries import qpochhammer_limit, qpochhammer_prefix

_EPS = 2.0 ** -52
# Per-term rounding allowance: exp, two q-powers and the two product factors.
_TERM_ULPS = 8.0
# Relative-accuracy threshold of the complement below which the CDF switches
# to the simplex sandwich.
REL_ERR_SWITCH = 1e-8
# Truncation tolerance of the full-perpetuity series, relative to phi_inf(q).
LIMIT_SERIES_TOL = 1e-14


@dataclass(frozen=True, slots=True)
class TailEval:
    """A probability in [0, 1] together with a numerical-error estimate."""

    value: float
    abs_error: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise DomainError(f"value must lie in [0, 1], got {self.value!r}")
        if not self.abs_error >= 0.0:
            raise DomainError(f"abs_error must be >= 0, got {self.abs_error!r}")


def _tail(value: float, abs_error: float) -> TailEval:
    return TailEval(min(max(value, 0.0), 1.0), max(abs_error, 0.0))


@lru_cache(maxsize=256, typed=True)
def _series_coeffs(q: float, n: int, exponent_shift: int) -> tuple:
    """Term table of the finite-n series: (numerator, rate, denominator) for
    each j <= n up to the last numerator that is not 0.0, with numerator
    (-1)^j q^{j(j+1)/2 - j*shift}, rate q^{-j} and denominator phi_j phi_{n-j}.
    shift=0 gives the survival series, shift=1 the density series. phi_i is
    read off the prefix that stops where the products stop changing. The
    cache is typed, so that its entry for n=1 does not answer n=True, which
    ``qpochhammer_prefix`` refuses."""
    phis = qpochhammer_prefix(q, n)
    last = len(phis) - 1
    table = []
    sign = 1.0
    qpow = 1.0  # q^{j(j+1)/2 - j*shift}
    rate = 1.0  # q^{-j}
    for j in range(n + 1):
        if qpow == 0.0:
            break
        table.append((sign * qpow, rate, phis[min(j, last)] * phis[min(n - j, last)]))
        sign = -sign
        qpow *= q ** (j + 1 - exponent_shift)
        rate /= q
    return tuple(table)


@lru_cache(maxsize=256)
def _limit_coeffs(q: float) -> tuple:
    """Term table of the full-perpetuity series: (numerator, rate, phi_j) for
    each j until q^{j(j+1)/2}/phi_j drops below LIMIT_SERIES_TOL * phi_inf(q).
    The cutoff does not depend on t, so it is applied here once."""
    cutoff = LIMIT_SERIES_TOL * qpochhammer_limit(q)
    table = []
    sign = 1.0
    qpow = 1.0  # q^{j(j+1)/2}
    rate = 1.0  # q^{-j}
    phi_j = 1.0
    j = 0
    while j == 0 or qpow / phi_j >= cutoff:
        table.append((sign * qpow, rate, phi_j))
        sign = -sign
        j += 1
        qpow *= q**j
        phi_j *= 1.0 - q**j
        rate /= q
    return tuple(table)


def _sum_terms(table: tuple, t: float) -> tuple[float, float]:
    """Neumaier-compensated sum of numerator * exp(-rate t) / denominator over
    a term table; returns (sum, sum of |terms|) for error budgeting.

    Stops at the first zero exponential; every later term would be +-0.0.
    """
    exp = math.exp
    total = 0.0
    comp = 0.0
    absum = 0.0
    for num, rate, den in table:
        ex = exp(-rate * t) if t > 0.0 else 1.0
        if ex == 0.0:
            break
        term = num * ex / den
        size = abs(term)
        absum += size
        s = total + term
        if abs(total) >= size:
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
    return total + comp, absum


def _check_nt(n: int, t: float) -> None:
    check_int("n", n)
    check_real("t", t, least=0.0)


def perpetuity_survival(q_or_params, n: int, t: float) -> TailEval:
    """P(sum_{i=0..n} q^i W_i > t) via the alternating closed form.

    Equals 1 at t = 0 and exp(-t) for n = 0; non-decreasing in n at fixed t.
    """
    q = as_q(q_or_params)
    _check_nt(n, t)
    if t == 0.0:
        return _tail(1.0, 0.0)
    return _series(q, n, 0, t)


def _series(q: float, n: int, exponent_shift: int, t: float) -> TailEval:
    """The finite-n survival (shift=0, t > 0) or density (shift=1) for
    arguments already checked. Past q ~ 0.996 a denominator phi_j phi_{n-j}
    underflows to 0.0 at large n; reaching its term raises DomainError."""
    table = _series_coeffs(q, n, exponent_shift)
    try:
        value, absum = _sum_terms(table, t)
    except ZeroDivisionError:
        raise DomainError(f"(q;q)_j (q;q)_(n-j) underflows at q={q!r}, n={n}") from None
    return _tail(value, _TERM_ULPS * _EPS * absum + _EPS)


def perpetuity_density(q_or_params, n: int, t: float) -> TailEval:
    """Density of sum_{i=0..n} q^i W_i; equals -d/dt of the survival."""
    q = as_q(q_or_params)
    _check_nt(n, t)
    return _series(q, n, 1, t)


def perpetuity_survival_limit(q_or_params, t: float) -> TailEval:
    """P(sum_{i>=0} q^i W_i > t) for the full perpetuity.

    The series is truncated once q^{j(j+1)/2}/phi_j drops below
    LIMIT_SERIES_TOL * phi_inf(q); the omitted remainder decays
    super-geometrically and is folded into abs_error. Dominates the finite-n
    survival for every n, and equals 1 at t = 0.
    """
    q = as_q(q_or_params)
    check_real("t", t, least=0.0)
    if t == 0.0:
        return _tail(1.0, 0.0)
    phi_inf = qpochhammer_limit(q)
    value, absum = _sum_terms(_limit_coeffs(q), t)
    # Remainder bound: first omitted term over (1 - q), normalized by phi_inf.
    trunc = LIMIT_SERIES_TOL * phi_inf / (1.0 - q)
    err = (_TERM_ULPS * _EPS * absum + trunc) / phi_inf + _EPS
    return _tail(value / phi_inf, err)


def perpetuity_cdf(q_or_params, n: int, t: float) -> TailEval:
    """P(sum_{i=0..n} q^i W_i <= t), switching to the simplex sandwich when
    the alternating series cannot resolve the complement to REL_ERR_SWITCH."""
    q = as_q(q_or_params)
    _check_nt(n, t)
    if t == 0.0:
        return _tail(0.0, 0.0)
    surv = _series(q, n, 0, t)
    raw = 1.0 - surv.value
    if raw > 0.0 and surv.abs_error <= REL_ERR_SWITCH * raw:
        return _tail(raw, surv.abs_error)
    lower, upper = left_tail_sandwich(q, n + 1, t)
    if upper == 0.0:
        return _tail(0.0, 0.0)
    if lower > 0.0:
        mid = math.exp(0.5 * (math.log(lower) + math.log(upper)))
    else:
        mid = 0.5 * upper
    return _tail(mid, 0.5 * (upper - lower))


def split_time_survival(q_or_params, n: int, t: float) -> TailEval:
    """Survival of the tagged fragment's n-th split time.

    The n-th split time rescales to the perpetuity partial sum by q^n, so
    this is the finite-n survival evaluated at q^n * t. The rescaled argument
    is formed in log space; if it underflows, the value is 1 and abs_error is
    the log-space simplex upper bound on the complement (which may itself be
    below the smallest subnormal, in which case 0.0 is reported).
    """
    q = as_q(q_or_params)
    _check_nt(n, t)
    if t == 0.0:
        return _tail(1.0, 0.0)
    x = (q**n) * t
    if x > 0.0:
        return _series(q, n, 0, x)
    log_up = log_simplex_upper(q, n + 1, n * math.log(q) + math.log(t))
    return _tail(1.0, math.exp(log_up) if log_up < 0.0 else 1.0)


def tagged_depth_pmf(q_or_params, n: int, t: float) -> TailEval:
    """P(the fragment containing the origin has depth n at time t).

    Difference of consecutive split-time survivals; the depth-(-1) survival
    is identically zero. Values over n = 0, 1, ... sum to 1.
    """
    q = as_q(q_or_params)
    _check_nt(n, t)
    upper = split_time_survival(q, n, t)
    if n == 0:
        return upper
    lower = split_time_survival(q, n - 1, t)
    return _tail(upper.value - lower.value, upper.abs_error + lower.abs_error)


def gumbel_limit_cdf(q_or_params, s: float) -> float:
    """Limit law exp(-exp(-s)/phi_inf(q)) of the centred generation maximum.

    Equals 0.0 at s = -inf and 1.0 at s = +inf; a NaN s is refused.
    """
    phi_inf = qpochhammer_limit(as_q(q_or_params))
    if s not in (-math.inf, math.inf):
        check_real("s", s)
    if s < -700.0:
        return 0.0
    return math.exp(-math.exp(-s) / phi_inf)
