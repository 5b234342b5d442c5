"""q-Pochhammer products (q; q)_n and their n -> infinity limit."""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .params import as_q


@lru_cache(maxsize=256)
def qpochhammer_factors(q: float, n: int) -> tuple[float, ...]:
    """Partial products ((q;q)_0, ..., (q;q)_n), i.e. prod_{j<=i}(1 - q^j).

    The whole prefix is needed by the alternating survival series, so it is
    returned in one pass rather than recomputed per index. Results are
    cached per (q, n), so a t grid builds the prefix once; the tuple keeps a
    caller from mutating the cached value.
    """
    q = as_q(q)
    if n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    out = [1.0]
    acc = 1.0
    qj = 1.0
    for _ in range(n):
        qj *= q
        acc *= 1.0 - qj
        out.append(acc)
    return tuple(out)


def qpochhammer(q: float, n: int) -> float:
    """prod_{j=1..n} (1 - q^j); equals 1 for n = 0, decreasing in n."""
    return qpochhammer_factors(q, n)[n]


@lru_cache(maxsize=256)
def qpochhammer_limit(q: float, tol: float = 1e-14) -> float:
    """Euler's infinite product prod_{i>=1}(1 - q^i).

    Truncated once the remaining factors multiply to within ``tol`` of 1,
    using 1 - prod_{i>n}(1 - q^i) <= q^(n+1)/(1-q). The remainder lower
    bound is applied to the result, so the returned value never exceeds the
    true product (and hence no finite partial product), at the price of a
    one-sided error below tol.
    """
    q = as_q(q)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    acc = 1.0
    qj = q
    while qj / (1.0 - q) >= tol:
        acc *= 1.0 - qj
        qj *= q
        if qj == 0.0:
            break
    return acc * (1.0 - qj / (1.0 - q))
