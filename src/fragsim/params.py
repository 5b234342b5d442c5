"""Model parameters for the k-regular equal-split fragmentation.

Every formula in the package is driven by the scale factor ``q = k**(-alpha)``
together with the derived constants ``gamma = log k`` (depth-to-log-size
conversion) and ``kappa = 1/(gamma*alpha)`` (depth per unit log-time).
``q == exp(-1/kappa)`` holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, check_int, check_real


@dataclass(frozen=True)
class ModelParams:
    """Branching factor ``k >= 2`` and self-similarity index ``alpha > 0``."""

    k: int
    alpha: float
    q: float = field(init=False)
    gamma: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        check_int("k", self.k, 2)
        check_real("alpha", self.alpha, positive=True)
        alpha = float(self.alpha)
        q = self.k ** (-alpha)
        if not 0.0 < q < 1.0:
            raise DomainError(f"alpha={alpha!r} gives q={q!r}, outside (0, 1) in floating point")
        gamma = math.log(self.k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "kappa", 1.0 / (gamma * alpha))


def as_q(q_or_params: "ModelParams | float") -> float:
    """Accept either a ModelParams or a raw ``q`` and return ``q`` in (0, 1)."""
    if type(q_or_params) is float and 0.0 < q_or_params < 1.0:
        return q_or_params
    if isinstance(q_or_params, ModelParams):
        return q_or_params.q
    check_real("q", q_or_params)
    if not 0.0 < q_or_params < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q_or_params!r}")
    return float(q_or_params)


def as_kappa(q_or_params: "ModelParams | float") -> float:
    """Return ``kappa = 1/log(1/q)`` from a ModelParams or a raw ``q``."""
    if isinstance(q_or_params, ModelParams):
        return q_or_params.kappa
    return -1.0 / math.log(as_q(q_or_params))


def left_tail_constant(kappa: float) -> float:
    """A(kappa) = 1/(2 kappa) + log kappa - 1, the O(1) constant of the
    left-tail rate exponent and of the min-leaf center."""
    return 1.0 / (2.0 * kappa) + math.log(kappa) - 1.0
