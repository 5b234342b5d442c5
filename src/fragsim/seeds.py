"""Deterministic replica seeding.

Every replica owns an independent RNG stream derived from
``(master_seed, replica_index)`` by a fixed 64-bit avalanche permutation.
The mixing function below is part of the external reproducibility contract
(documented in the README): changing it invalidates recorded golden values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_int

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def stream_seed(master_seed: int, replica_index: int) -> int:
    """64-bit stream seed: splitmix64 finalizer applied to
    master_seed + (replica_index + 1) * 0x9E3779B97F4A7C15 (mod 2^64)."""
    z = (master_seed + (replica_index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one replica stream within a master-seeded experiment."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self):
        check_int("master_seed", self.master_seed, below=1 << 64)
        check_int("replica_index", self.replica_index)

    @property
    def stream(self) -> int:
        return stream_seed(self.master_seed, self.replica_index)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.stream)
