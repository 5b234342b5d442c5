"""Semantic exception hierarchy and the two argument checks.

The contract: a bad argument to a public function raises DomainError (or,
for an experiment spec or a CLI option, SpecError), never a bare
ValueError, OverflowError or TypeError. Integer arguments go through
``check_int`` and real ones through ``check_real``; each function adds at
most one line for a range rule that is not a lower bound.
"""

import math
import sys

_FLOAT_MAX = sys.float_info.max


class FragsimError(Exception):
    """Base error for this package."""


class DomainError(FragsimError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BudgetError(FragsimError):
    """A simulation would exceed the configured memory/size budget."""

    def __init__(self, required_bytes: int, budget_bytes: int, what: str):
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        self.what = what
        super().__init__(
            f"{what} requires {required_bytes} bytes, exceeding the budget of "
            f"{budget_bytes} bytes (set FRAGSIM_BUDGET_BYTES to raise it)"
        )

    def __reduce__(self):
        # unpickled from its arguments, not its message: a pool worker's refusal
        return type(self), (self.required_bytes, self.budget_bytes, self.what)


class ConvergenceError(FragsimError):
    """An iterative solver failed to reach the requested residual."""


class SpecError(FragsimError, ValueError):
    """An experiment spec is invalid; the message names the offending field."""


def check_int(
    name: str, value, least: int = 0, below: float = math.inf, error: type = DomainError
) -> None:
    """Raise ``error`` unless ``value`` is an int in [least, below). A bool is
    refused, although Python counts it as an int."""
    if isinstance(value, bool) or not (isinstance(value, int) and least <= value < below):
        span = f">= {least}" if below == math.inf else f"in [{least}, {below})"
        raise error(f"{name} must be an integer {span}, got {value!r}")


def check_real(
    name: str,
    value,
    positive: bool = False,
    least: float = -_FLOAT_MAX,
    error: type = DomainError,
) -> None:
    """Raise ``error`` unless ``value`` is a finite int or float that is >=
    ``least`` (a finite lower bound), and > 0 when ``positive``.

    A bool is refused, although Python counts it as an int, and so is a
    numpy integer, as ``check_int`` refuses it: what passes is what the JSON
    sidecar writes as a number. A numpy float64 is a float and passes.
    """
    if not (
        (type(value) is float or (isinstance(value, (int, float)) and not isinstance(value, bool)))
        # false for inf and nan, and for an int no float can hold
        and least <= value <= _FLOAT_MAX
        and (value > 0 or not positive)
    ):
        kind = "a positive finite" if positive else "a finite"
        bound = f" >= {least:g}" if least > -_FLOAT_MAX else ""
        raise error(f"{name} must be {kind} number{bound}, got {value!r}")
