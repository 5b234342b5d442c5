"""What the simulation engines may use: a memory budget (env
FRAGSIM_BUDGET_BYTES) and the CPUs this process may run on."""

from __future__ import annotations

import os

from .errors import BudgetError

DEFAULT_BUDGET_BYTES = 2 << 30  # 2 GiB

ENV_VAR = "FRAGSIM_BUDGET_BYTES"


def budget_bytes() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise BudgetError(0, 0, f"{ENV_VAR}={raw!r} is not an integer; check")
    if value <= 0:
        raise BudgetError(0, value, f"{ENV_VAR} must be positive; check")
    return value


def ensure_within_budget(required_bytes: int, what: str) -> None:
    """Raise BudgetError before any allocation if ``required_bytes`` exceeds
    the configured budget."""
    budget = budget_bytes()
    if required_bytes > budget:
        raise BudgetError(required_bytes, budget, what)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else os.cpu_count(), and at least one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
