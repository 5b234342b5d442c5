"""q-Pochhammer products (q; q)_n and their n -> infinity limit."""

from __future__ import annotations

import sys
from functools import lru_cache

from .errors import DomainError, check_int
from .params import as_q

# Relative truncation error of qpochhammer_limit.
LIMIT_TOL = 1e-14


def qpochhammer_prefix(q: float, n: int) -> tuple[float, ...]:
    """Partial products ((q;q)_0, ..., (q;q)_m), prod_{j<=i}(1 - q^j), up to
    the least m <= n past which they stop changing: once 1 - q^j rounds to
    1.0, every later factor is exactly 1.0 (m = 53 at q = 0.5, 374,280 at
    q = 0.9999). (q;q)_i for i <= n is prefix[min(i, m)], so the cost is
    bounded by q whatever n is.
    """
    q = as_q(q)
    check_int("n", n)
    out = [1.0]
    acc = 1.0
    qj = 1.0
    for _ in range(n):
        qj *= q
        factor = 1.0 - qj
        if factor == 1.0:
            break
        acc *= factor
        out.append(acc)
    return tuple(out)


def qpochhammer(q: float, n: int) -> float:
    """prod_{j=1..n} (1 - q^j); equals 1 for n = 0, decreasing in n."""
    return qpochhammer_prefix(q, n)[-1]


@lru_cache(maxsize=256)
def qpochhammer_limit(q: float) -> float:
    """Euler's infinite product prod_{i>=1}(1 - q^i).

    Truncated once the remaining factors multiply to within LIMIT_TOL of 1,
    using 1 - prod_{i>n}(1 - q^i) <= q^(n+1)/(1-q). The remainder lower
    bound is applied to the result, so the returned value never exceeds the
    true product (and hence no finite partial product), at the price of a
    one-sided error below LIMIT_TOL. Raises DomainError when the product
    drops below the smallest normal float, for q above about 0.9977.
    """
    q = as_q(q)
    acc = 1.0
    qj = q
    while qj / (1.0 - q) >= LIMIT_TOL:
        acc *= 1.0 - qj
        qj *= q
        if acc < sys.float_info.min:
            raise DomainError(f"(q;q)_inf underflows at q={q!r}")
    return acc * (1.0 - qj / (1.0 - q))
