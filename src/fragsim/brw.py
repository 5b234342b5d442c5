"""Generation-frame sampler for the rescaled branching random walk.

One generation is a dense array of k^n leaf values; a child equals q times
its parent plus a fresh standard exponential. Extremes over a generation
cannot be recovered from a subsample, hence full frames rather than thinning.

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
from .errors import DomainError
from .params import ModelParams
from .seeds import SeedSpec

DEFAULT_POINT_FLOOR = -5.0

# Bytes of frames one kernel block may hold; beyond this, batching replicas
# gains nothing over the cost of drawing their frames.
BLOCK_CAP_BYTES = 1 << 20


@dataclass(frozen=True)
class GenerationFrame:
    """All k^n rescaled positions of one generation, in fixed leaf order."""

    n: int
    values: np.ndarray


@dataclass(frozen=True)
class GenerationSummary:
    """Per-generation extremes and the centred points above a floor.

    tau is the centred maximum k_max - gamma*n; points_above holds the
    centred values J = value - gamma*n with J >= floor, sorted ascending.
    """

    n: int
    k_min: float
    k_max: float
    tau: float
    points_above: np.ndarray = field(repr=False)


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


@dataclass(frozen=True)
class SpinePath:
    """Strictly increasing split times of the fragment containing the origin."""

    split_times: np.ndarray


def _replica_bytes(k: int, n_max: int) -> int:
    # one replica's child frame of k^n_max doubles plus its parent
    return 8 * (k**n_max + k ** max(n_max - 1, 0))


def _check_n_max(n_max) -> None:
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be a non-negative integer, got {n_max!r}")


def block_rows(k: int, n_max: int) -> int:
    """Replicas per kernel block: as many as BLOCK_CAP_BYTES and the memory
    budget admit, and at least one."""
    _check_n_max(n_max)
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


def brw_frames(
    params: ModelParams, n_max: int, seed: SeedSpec
) -> Iterator[GenerationFrame]:
    """Yield generations 0..n_max of one replica, one frame at a time.

    Each frame is a copy that the caller may keep; the sampler itself holds
    one frame plus its parent.
    """
    _check_n_max(n_max)
    child, parent = _buffers(
        params.k, n_max, 1, f"brw sweep to generation {n_max} (k={params.k})"
    )
    draw = _row_streams([seed.rng()])
    for n, frames in _generations(params, n_max, 1, draw, child, parent):
        yield GenerationFrame(n, frames[0].copy())


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
    rows = max(1, min(count, block_rows(k, n_max)))
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


def brw_sweep(
    params: ModelParams,
    n_max: int,
    seed: SeedSpec,
    floor: float = DEFAULT_POINT_FLOOR,
) -> list[GenerationSummary]:
    """Summaries of generations 0..n_max for one replica."""
    sweep = sweep_replicas(params, n_max, [seed], floor, range(n_max + 1))
    return [
        GenerationSummary(n, k_min, k_max, tau, sweep.points[n][0])
        for n, k_min, k_max, tau in zip(
            range(n_max + 1),
            sweep.k_min[0].tolist(),
            sweep.k_max[0].tolist(),
            sweep.tau[0].tolist(),
        )
    ]


def kmin_kmax_sweep(
    params: ModelParams, n_max: int, replicas: int, master_seed: int
) -> np.ndarray:
    """Per-(replica, generation) extremes as a structured array.

    Fields: replica, n, k_min, k_max, tau. Replica r uses the stream
    (master_seed, r); rows are emitted in replica-major order, so the result
    is independent of any scheduling.
    """
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas!r}")
    sweep = sweep_replicas(
        params, n_max, [SeedSpec(master_seed, r) for r in range(replicas)]
    )
    dtype = np.dtype(
        [("replica", "i8"), ("n", "i8"), ("k_min", "f8"), ("k_max", "f8"), ("tau", "f8")]
    )
    out = np.empty((replicas, n_max + 1), dtype=dtype)
    out["replica"] = np.arange(replicas)[:, None]
    out["n"] = np.arange(n_max + 1)
    out["k_min"] = sweep.k_min
    out["k_max"] = sweep.k_max
    out["tau"] = sweep.tau
    return out.ravel()


def tree_matrices(
    params: ModelParams, n_max: int, replicas: int, seed: SeedSpec
) -> list[np.ndarray]:
    """All generations 0..n_max for many replicas at once.

    Returns one (replicas, k^n) matrix per generation, drawn from a single
    stream; meant for small trees (joint-law and tuple-counting checks) where
    every generation must be retained.
    """
    _check_n_max(n_max)
    k = params.k
    kept = 8 * replicas * sum(k**n for n in range(n_max + 1))
    child, parent = _buffers(
        k, n_max, replicas, f"tree matrices to generation {n_max} x {replicas} replicas", kept
    )
    rng = seed.rng()

    def draw(frames: np.ndarray) -> None:
        rng.standard_exponential(out=frames)

    return [f.copy() for _, f in _generations(params, n_max, replicas, draw, child, parent)]


def spine_sample(params: ModelParams, n: int, seed: SeedSpec) -> SpinePath:
    """Split times S_0 < ... < S_n of the tagged fragment.

    S_i = sum_{j<=i} q^{-j} W_j with i.i.d. standard exponentials W_j, so
    q^n S_n reproduces the generation-n walk value in law.
    """
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    rng = seed.rng()
    w = rng.standard_exponential(n + 1)
    weights = params.q ** (-np.arange(n + 1, dtype=float))
    return SpinePath(np.cumsum(weights * w))


def spine_sum_samples(
    params: ModelParams, n: int, replicas: int, seed: SeedSpec
) -> np.ndarray:
    """replicas spine-derived samples of q^n S_n, one row of draws each."""
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas!r}")
    ensure_within_budget(
        8 * replicas * (n + 1), f"spine samples n={n} x {replicas} replicas"
    )
    rng = seed.rng()
    w = rng.standard_exponential((replicas, n + 1))
    weights = params.q ** (n - np.arange(n + 1, dtype=float))
    return w @ weights
