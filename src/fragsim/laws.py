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

Each series stops at the first term whose exponential ``exp(-q^{-j} t)`` is
exactly 0.0. For t > 0 the rate q^{-j} only grows with j, so every later
term is +-0.0 as well. Adding +-0.0 leaves both the compensated sum and the
sum of |terms| bit-for-bit unchanged, so the stop changes no value and no
error bound; it only skips work. At q = 0.5 and n = 200 it leaves 6 to 16
of the 201 terms on t in [0.02, 20].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .lefttail import left_tail_sandwich, log_simplex_upper
from .params import as_q
from .qseries import qpochhammer_factors, qpochhammer_limit

_EPS = 2.0 ** -52
# Per-term rounding allowance: exp, two q-powers and the two product factors.
_TERM_ULPS = 8.0
# Relative-accuracy threshold of the complement below which the CDF switches
# to the simplex sandwich.
REL_ERR_SWITCH = 1e-8
# Truncation tolerance of the full-perpetuity series, relative to phi_inf(q).
LIMIT_SERIES_TOL = 1e-14


@dataclass(frozen=True)
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


def _neumaier(terms) -> tuple[float, float]:
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


def _series_terms(q: float, n: int, t: float, exponent_shift: int):
    """Terms (-1)^j q^{j(j+1)/2 - j*shift} exp(-q^{-j} t) / (phi_j phi_{n-j}).

    shift=0 gives the survival series, shift=1 the density series. Stops at
    the first zero exponential; every later term would be +-0.0.
    """
    phis = qpochhammer_factors(q, n)
    sign = 1.0
    qpow = 1.0  # q^{j(j+1)/2 - j*shift}
    rate = 1.0  # q^{-j}
    for j in range(n + 1):
        ex = math.exp(-rate * t) if t > 0.0 else 1.0
        if ex == 0.0:
            return
        yield sign * qpow * ex / (phis[j] * phis[n - j])
        sign = -sign
        qpow *= q ** (j + 1 - exponent_shift)
        rate /= q


def _check_nt(n: int, t: float) -> None:
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be a non-negative real, got {t!r}")


def perpetuity_survival(q_or_params, n: int, t: float) -> TailEval:
    """P(sum_{i=0..n} q^i W_i > t) via the alternating closed form.

    Equals 1 at t = 0 and exp(-t) for n = 0; non-decreasing in n at fixed t.
    """
    q = as_q(q_or_params)
    _check_nt(n, t)
    if t == 0.0:
        return _tail(1.0, 0.0)
    value, absum = _neumaier(_series_terms(q, n, t, exponent_shift=0))
    return _tail(value, _TERM_ULPS * _EPS * absum + _EPS)


def perpetuity_density(q_or_params, n: int, t: float) -> TailEval:
    """Density of sum_{i=0..n} q^i W_i; equals -d/dt of the survival."""
    q = as_q(q_or_params)
    _check_nt(n, t)
    value, absum = _neumaier(_series_terms(q, n, t, exponent_shift=1))
    return _tail(value, _TERM_ULPS * _EPS * absum + _EPS)


def perpetuity_survival_limit(q_or_params, t: float) -> TailEval:
    """P(sum_{i>=0} q^i W_i > t) for the full perpetuity.

    The series is truncated once q^{j(j+1)/2}/phi_j drops below
    LIMIT_SERIES_TOL * phi_inf(q); the omitted remainder decays
    super-geometrically and is folded into abs_error. Dominates the finite-n
    survival for every n, and equals 1 at t = 0.
    """
    q = as_q(q_or_params)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be a non-negative real, got {t!r}")
    if t == 0.0:
        return _tail(1.0, 0.0)
    phi_inf = qpochhammer_limit(q)
    cutoff = LIMIT_SERIES_TOL * phi_inf

    def terms():
        sign = 1.0
        qpow = 1.0
        rate = 1.0
        phi_j = 1.0
        j = 0
        while True:
            bound = qpow / phi_j
            if j > 0 and bound < cutoff:
                break
            ex = math.exp(-rate * t)
            if ex == 0.0:  # t > 0: every later term is +-0.0
                break
            yield sign * qpow * ex / phi_j
            sign = -sign
            j += 1
            qpow *= q**j
            phi_j *= 1.0 - q**j
            rate /= q
            if j > 10_000:  # unreachable for q < 1; defensive
                break

    value, absum = _neumaier(terms())
    # Remainder bound: first omitted term over (1 - q), normalized by phi_inf.
    trunc = cutoff / (1.0 - q)
    err = (_TERM_ULPS * _EPS * absum + trunc) / phi_inf + _EPS
    return _tail(value / phi_inf, err)


def perpetuity_cdf(q_or_params, n: int, t: float) -> TailEval:
    """P(sum_{i=0..n} q^i W_i <= t), switching to the simplex sandwich when
    the alternating series cannot resolve the complement to REL_ERR_SWITCH."""
    q = as_q(q_or_params)
    _check_nt(n, t)
    if t == 0.0:
        return _tail(0.0, 0.0)
    surv = perpetuity_survival(q, n, t)
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
        return perpetuity_survival(q, n, x)
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
    """Limit law exp(-exp(-s)/phi_inf(q)) of the centred generation maximum."""
    phi_inf = qpochhammer_limit(as_q(q_or_params))
    if s < -700.0:
        return 0.0
    return math.exp(-math.exp(-s) / phi_inf)
