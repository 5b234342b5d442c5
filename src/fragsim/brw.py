"""Generation-frame sampler for the rescaled branching random walk.

One generation is a dense array of k^n leaf values; a child equals q times
its parent plus a fresh standard exponential. Extremes over a generation
cannot be recovered from a subsample, hence full frames rather than thinning.

sweep_replicas is the entry point: it runs any list of seeds to generation
n_max and returns a ReplicaSweep of (replicas, n_max + 1) extremes plus the
centred points of the generations asked for. A single replica is a list of
one seed.

Every sweep runs on one kernel that advances a block of R replicas one
generation at a time, each replica drawing from its own stream. A sweep
allocates two buffers once: a child buffer of R*k^n_max doubles and a parent
buffer of R*k^(n_max-1). Generation n is the (R, k^n) view of the first
R*k^n child slots, so the footprint of a sweep is R frames plus their
parents however many replicas it runs, and nothing is allocated per frame.
R is the number of replicas whose frames fit in BLOCK_CAP_BYTES (1 MiB) and
in the memory budget, and at least one: with k=2 it is 341 at n_max=8, 21
at n_max=12 and 1 from n_max=16 up, where batching gains nothing.
tree_matrices runs the same kernel on one block of all its replicas, drawn
from a single stream, and keeps every generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .budget import budget_bytes, ensure_within_budget
from .errors import DomainError, check_int
from .params import ModelParams
from .seeds import SeedSpec

DEFAULT_POINT_FLOOR = -5.0

# Bytes of frames one kernel block may hold; beyond this, batching replicas
# gains nothing over the cost of drawing their frames.
BLOCK_CAP_BYTES = 1 << 20


@dataclass(frozen=True)
class ReplicaSweep:
    """Extremes of generations 0..n_max for a run of replicas.

    k_min, k_max and tau are (replicas, n_max + 1) arrays in the order the
    seeds were given. points maps each requested generation n to one array
    per replica of the centred values J = value - gamma*n with J >= floor,
    sorted ascending.
    """

    k_min: np.ndarray
    k_max: np.ndarray
    tau: np.ndarray
    points: dict[int, list[np.ndarray]] = field(repr=False)


def _replica_bytes(k: int, n_max: int) -> int:
    # one replica's child frame of k^n_max doubles plus its parent
    return 8 * (k**n_max + k ** max(n_max - 1, 0))


def block_rows(k: int, n_max: int) -> int:
    """Replicas per kernel block: as many as BLOCK_CAP_BYTES and the memory
    budget admit, and at least one."""
    check_int("n_max", n_max)
    return max(1, min(BLOCK_CAP_BYTES, budget_bytes()) // _replica_bytes(k, n_max))


def _buffers(
    k: int, n_max: int, rows: int, what: str, kept_bytes: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's child and parent buffers for blocks of up to ``rows``
    replicas, charged to the memory budget, with whatever the caller keeps,
    before they are allocated."""
    ensure_within_budget(rows * _replica_bytes(k, n_max) + kept_bytes, what)
    return np.empty(rows * k**n_max), np.empty(rows * k ** max(n_max - 1, 0))


def _row_streams(rngs: Sequence[np.random.Generator]) -> Callable[[np.ndarray], None]:
    """Fill row r of a frame block from rngs[r]."""

    def draw(frames: np.ndarray) -> None:
        for rng, row in zip(rngs, frames):
            rng.standard_exponential(out=row)

    return draw


def _generations(
    params: ModelParams,
    n_max: int,
    rows: int,
    draw: Callable[[np.ndarray], None],
    child: np.ndarray,
    parent: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, frames) for n = 0..n_max, frames being the (rows, k^n) view
    of generation n in ``child``; the next generation overwrites it.

    ``draw`` fills a block with standard exponentials, each row in leaf
    order, so a row's generation-n frame takes k^n draws before its
    generation n+1 starts.
    """
    k, q = params.k, params.q
    frames = child[:rows].reshape(rows, 1)
    draw(frames)
    yield 0, frames
    for n in range(1, n_max + 1):
        up = parent[: frames.size].reshape(frames.shape)
        np.multiply(frames, q, out=up)
        frames = child[: rows * k**n].reshape(rows, k**n)
        draw(frames)
        # children of parent p occupy slots p*k .. p*k+k-1
        for j in range(k):
            frames[:, j::k] += up
        yield n, frames


def sweep_replicas(
    params: ModelParams,
    n_max: int,
    seeds: Sequence[SeedSpec],
    floor: float = DEFAULT_POINT_FLOOR,
    point_generations: Iterable[int] = (),
) -> ReplicaSweep:
    """Extremes of generations 0..n_max for every seed, and the centred points
    at or above ``floor`` for the generations in ``point_generations`` only.

    Replicas run in blocks of block_rows(k, n_max) through one pair of
    buffers. Each replica's values are those of a sweep of its seed alone.
    """
    k, gamma, count = params.k, params.gamma, len(seeds)
    if count < 1:
        raise DomainError("seeds must list at least one replica")
    rows = min(count, block_rows(k, n_max))
    child, parent = _buffers(
        k, n_max, rows, f"brw sweep to generation {n_max} (k={k}, {rows} replica(s) per block)"
    )
    wanted = set(point_generations)
    k_min = np.empty((count, n_max + 1))
    k_max = np.empty((count, n_max + 1))
    points: dict[int, list[np.ndarray]] = {n: [] for n in sorted(wanted)}
    for lo in range(0, count, rows):
        rngs = [s.rng() for s in seeds[lo : lo + rows]]
        hi = lo + len(rngs)
        draw = _row_streams(rngs)
        for n, frames in _generations(params, n_max, len(rngs), draw, child, parent):
            frames.min(axis=1, out=k_min[lo:hi, n])
            frames.max(axis=1, out=k_max[lo:hi, n])
            if n in wanted:
                shift = gamma * n
                threshold = floor + shift
                for row in frames:
                    points[n].append(np.sort(row[row >= threshold] - shift))
    tau = k_max - gamma * np.arange(n_max + 1)
    return ReplicaSweep(k_min, k_max, tau, points)


def tree_matrices(
    params: ModelParams, n_max: int, replicas: int, seed: SeedSpec
) -> list[np.ndarray]:
    """All generations 0..n_max for many replicas at once.

    Returns one (replicas, k^n) matrix per generation, drawn from a single
    stream; meant for small trees (joint-law and tuple-counting checks) where
    every generation must be retained.
    """
    check_int("n_max", n_max)
    check_int("replicas", replicas, 1)
    k = params.k
    kept = 8 * replicas * sum(k**n for n in range(n_max + 1))
    child, parent = _buffers(
        k, n_max, replicas, f"tree matrices to generation {n_max} x {replicas} replicas", kept
    )
    rng = seed.rng()

    def draw(frames: np.ndarray) -> None:
        rng.standard_exponential(out=frames)

    return [f.copy() for _, f in _generations(params, n_max, replicas, draw, child, parent)]


def spine_sample(params: ModelParams, n: int, seed: SeedSpec) -> np.ndarray:
    """Strictly increasing split times S_0 < ... < S_n of the tagged fragment.

    S_i = sum_{j<=i} q^{-j} W_j with i.i.d. standard exponentials W_j, so
    q^n S_n reproduces the generation-n walk value in law.
    """
    check_int("n", n)
    rng = seed.rng()
    w = rng.standard_exponential(n + 1)
    weights = params.q ** (-np.arange(n + 1, dtype=float))
    return np.cumsum(weights * w)


def spine_sum_samples(
    params: ModelParams, n: int, replicas: int, seed: SeedSpec
) -> np.ndarray:
    """replicas spine-derived samples of q^n S_n, one row of draws each."""
    check_int("n", n)
    check_int("replicas", replicas, 1)
    ensure_within_budget(
        8 * replicas * (n + 1), f"spine samples n={n} x {replicas} replicas"
    )
    rng = seed.rng()
    w = rng.standard_exponential((replicas, n + 1))
    weights = params.q ** (n - np.arange(n + 1, dtype=float))
    return w @ weights
