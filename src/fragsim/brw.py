"""Generation-frame sampler for the rescaled branching random walk.

One generation is a dense array of k^n leaf values; a child equals q times
its parent plus a fresh standard exponential. Extremes over a generation
cannot be recovered from a subsample, hence full frames rather than thinning.

sweep_replicas is the entry point: it runs any list of seeds to generation
n_max and returns a ReplicaSweep of (replicas, n_max + 1) extremes plus the
centred points of the generations asked for. A single replica is a list of
one seed.

Every sweep runs on one kernel that advances a block of R replicas one
generation at a time, each replica drawing from its own stream, and a
generation one chunk of leaves at a time. A chunk is R rows of at most
BLOCK_CAP_BYTES (1 MiB) of leaves, a multiple of k wide, and goes through
all of its steps while it is in cache: draw, add q times its parents,
reduce to extremes, take its points. A block holds two buffers. Generations
before the last grow in place in the first, ``held``, of R*k^(n_max-1)
doubles: generation n fills its last R*k^n doubles, over its parents in the
last R*k^(n-1). Before a chunk is drawn, its parents times q are set aside
in the second, ``scratch``, of R*min(k^n_max, chunk width) doubles, since
the chunk may be drawn over them; parents that later chunks still need lie
beyond the chunk's end (see _generations). The last generation is drawn a
chunk at a time into ``scratch`` and never held whole; its parents are
scaled where they lie. R is the number of replicas whose buffers fit in
BLOCK_CAP_BYTES and in the memory budget, and at least one: with k=2 it is
341 at n_max=8, 21 at n_max=12 and 1 from n_max=16 up. When R > 1,
8*R*k^n_max <= BLOCK_CAP_BYTES, so a chunk is a whole generation and every
parent is set aside before any of its children is drawn; the buffers then
hold R*(k^n_max + k^(n_max-1)) doubles, a frame and its parents. Once the
last generation spans more than one chunk, a block (R = 1) holds
generation n_max-1 and one chunk, the least a breadth-first sweep can.

Where the last generation spans more than one chunk, blocks run on a pool
of threads (the draws and the ufuncs release the GIL), each thread with its
own buffers and its own rows of the result; below that size threads cost
more than they gain. sweep_plan makes both cuts, blocks and threads. Every
stream makes the same draws in the same order whatever the chunk and thread
count, so results are byte-identical.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budget import budget_bytes, ensure_within_budget, usable_cpus
from .errors import DomainError, check_int, check_real
from .params import ModelParams
from .seeds import SeedSpec

DEFAULT_POINT_FLOOR = -5.0

# Bytes of buffers a batched kernel block may hold, and of leaves in one
# chunk; beyond this, batching replicas gains nothing over the cost of
# drawing their frames, and a chunk no longer stays in cache.
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


def _chunk_width(k: int, rows: int) -> int:
    """Leaves per row in one chunk: as many as BLOCK_CAP_BYTES holds for
    ``rows`` rows, rounded down to a multiple of k, and at least k."""
    return max(k, BLOCK_CAP_BYTES // (8 * rows) // k * k)


def _block_doubles(k: int, n_max: int, rows: int) -> tuple[int, int]:
    """Sizes of a block's two buffers: ``held`` grows generations 0..n_max-1
    in place and ends holding generation n_max-1; ``scratch`` holds one
    chunk of generation n_max, and before that the scaled parents of one
    chunk of an earlier generation."""
    held = rows * k ** (n_max - 1) if n_max else 0
    return held, rows * min(k**n_max, _chunk_width(k, rows))


def sweep_plan(k: int, n_max: int) -> tuple[int, int, bool]:
    """How sweep_replicas cuts a sweep to generation n_max: (rows, threads,
    threaded). A block is ``rows`` replicas, as many as BLOCK_CAP_BYTES and
    the memory budget admit the buffers of, and at least one. The blocks
    run on threads where the last generation spans more than one chunk,
    which needs rows == 1: on as many as there are usable CPUs and as the
    budget holds one block's buffers for, and at least one. Else they run on
    this thread, and ``threads`` is 1."""
    check_int("n_max", n_max)
    per_replica = 8 * sum(_block_doubles(k, n_max, 1))
    budget = budget_bytes()
    rows = max(1, min(BLOCK_CAP_BYTES, budget) // per_replica)
    if k**n_max <= _chunk_width(k, rows):
        return rows, 1, False
    return rows, max(1, min(usable_cpus(), budget // per_replica)), True


def _generations(
    params: ModelParams,
    n_max: int,
    rngs: Sequence[np.random.Generator],
    held: np.ndarray,
    scratch: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, chunk) for generations n = 0..n_max in turn, chunk being
    the (rows, w) view of leaves a..a+w-1 of generation n, a chunk's leaves
    following the last one's, one row per stream in ``rngs`` and w at most
    _chunk_width(k, rows). The kernel reuses a chunk's memory once the next
    one is asked for.

    Each row of a chunk is filled with standard exponentials from its own
    stream, in leaf order, so a row's generation-n frame takes k^n draws,
    chunk after chunk, before its generation n+1 starts.

    Generation n < n_max is the (rows, k^n) matrix in the last rows*k^n
    doubles of ``held``, right-aligned over its parents. Leaf c is child
    c mod k of parent c // k. With one row of S parents ending at H, chunk
    [a, a+w) of the children ends at H - kS + a + w <= H - S + (a+w)/k, the
    first parent a later chunk needs, for every a + w <= kS: drawing a chunk
    overwrites only parents of it and of earlier chunks. Its own parents, q
    times over, go to the front of ``scratch`` first. A block of more rows
    draws each generation as one chunk (see the module docstring), so all
    its parents are set aside before any child is drawn. Generation n_max is
    drawn into ``scratch``; its parents in ``held`` are scaled in place.
    """
    k, q, rows = params.k, params.q, len(rngs)
    width = _chunk_width(k, rows)
    parents = None
    for n in range(n_max + 1):
        size = k**n
        frame = held[held.size - rows * size :].reshape(rows, size) if n < n_max else None
        for a in range(0, size, width):
            w = min(width, size - a)
            if parents is not None:
                # children of parent p occupy slots p*k .. p*k+k-1
                up = parents[:, a // k : (a + w) // k]
                scaled = up if frame is None else scratch[: up.size].reshape(up.shape)
                np.multiply(up, q, out=scaled)
            chunk = scratch[: rows * w].reshape(rows, w) if frame is None else frame[:, a : a + w]
            for rng, row in zip(rngs, chunk):
                rng.standard_exponential(out=row)
            if parents is not None:
                for j in range(k):
                    chunk[:, j::k] += scaled
            yield n, chunk
        parents = frame


def _sweep_block(
    params: ModelParams,
    n_max: int,
    rngs: Sequence[np.random.Generator],
    buffers: tuple[np.ndarray, np.ndarray],
    k_min: np.ndarray,
    k_max: np.ndarray,
    floor: float,
    wanted: Sequence[int],
) -> dict[int, list[np.ndarray]]:
    """Run one block, one replica per stream in ``rngs``: fold its extremes
    into the rows ``k_min`` and ``k_max``, which start at +inf and -inf, and
    return its points."""
    parts: dict[int, list[list[np.ndarray]]] = {n: [[] for _ in rngs] for n in wanted}
    for n, chunk in _generations(params, n_max, rngs, *buffers):
        np.minimum(k_min[:, n], chunk.min(axis=1), out=k_min[:, n])
        np.maximum(k_max[:, n], chunk.max(axis=1), out=k_max[:, n])
        if n in parts:
            shift = params.gamma * n
            threshold = floor + shift
            for row_parts, row in zip(parts[n], chunk):
                row_parts.append(row[row >= threshold] - shift)
    return {n: [np.sort(np.concatenate(p)) for p in per_row] for n, per_row in parts.items()}


def sweep_replicas(
    params: ModelParams,
    n_max: int,
    seeds: Sequence[SeedSpec],
    floor: float = DEFAULT_POINT_FLOOR,
    point_generations: Iterable[int] = (),
) -> ReplicaSweep:
    """Extremes of generations 0..n_max for every seed, and the centred points
    at or above ``floor`` for the generations in ``point_generations`` only.

    Replicas run in blocks of sweep_plan's rows, on min(blocks, threads)
    threads. Each replica's values are those of a sweep of its seed alone.
    """
    k, gamma, count = params.k, params.gamma, len(seeds)
    if count < 1:
        raise DomainError("seeds must list at least one replica")
    if floor not in (-np.inf, np.inf):  # -inf keeps every point, +inf none
        check_real("floor", floor)
    rows, threads, _ = sweep_plan(k, n_max)
    rows = min(count, rows)
    held, scratch = _block_doubles(k, n_max, rows)
    ensure_within_budget(
        8 * (held + scratch),
        f"brw sweep to generation {n_max} (k={k}, {rows} replica(s) per block)",
    )
    starts = range(0, count, rows)
    workers = min(len(starts), threads)
    wanted = sorted(set(point_generations))
    k_min = np.full((count, n_max + 1), np.inf)
    k_max = np.full((count, n_max + 1), -np.inf)
    own = threading.local()

    def block(lo: int) -> dict[int, list[np.ndarray]]:
        # each thread allocates its buffers once; a block's streams are
        # made when it runs
        if not hasattr(own, "buffers"):
            own.buffers = np.empty(held), np.empty(scratch)
        hi = min(lo + rows, count)
        rngs = [s.rng() for s in seeds[lo:hi]]
        return _sweep_block(
            params, n_max, rngs, own.buffers, k_min[lo:hi], k_max[lo:hi], floor, wanted
        )

    if workers == 1:
        points = list(map(block, starts))
    else:
        with ThreadPoolExecutor(workers) as pool:
            points = list(pool.map(block, starts))
    tau = k_max - gamma * np.arange(n_max + 1)
    return ReplicaSweep(k_min, k_max, tau, {n: [p for b in points for p in b[n]] for n in wanted})


def spine_sample(params: ModelParams, n: int, seed: SeedSpec) -> np.ndarray:
    """Strictly increasing split times S_0 < ... < S_n of the tagged fragment.

    S_i = sum_{j<=i} q^{-j} W_j with i.i.d. standard exponentials W_j, so
    q^n S_n reproduces the generation-n walk value in law. An n whose weight
    q^{-n} overflows a float (past 1023 at q = 1/2) is refused before any
    draw, and so is a draw whose S_n overflows.
    """
    check_int("n", n)
    # the draws, the weights, their products and the sums
    ensure_within_budget(8 * 4 * (n + 1), f"spine sample n={n}")
    q = params.q
    with np.errstate(over="ignore"):
        weights = q ** (-np.arange(n + 1, dtype=float))
        if np.isinf(weights[-1]):
            limit = np.isfinite(weights).sum() - 1
            raise DomainError(
                f"n must be at most {limit} at q={q!r}, beyond which q^-n overflows a float, "
                f"got {n}"
            )
        times = np.cumsum(weights * seed.rng().standard_exponential(n + 1))
    if np.isinf(times[-1]):
        raise DomainError(f"split time S_{n} overflows a float at q={q!r}; lower n")
    return times

