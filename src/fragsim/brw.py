"""Generation-frame sampler for the rescaled branching random walk.

One generation is a dense array of k^n leaf values; a child equals q times
its parent plus a fresh standard exponential. Only the current frame is held
in memory, so the peak footprint for a sweep to generation n is one frame of
k^n doubles plus its parent. Extremes over a generation cannot be recovered
from a subsample, hence full frames rather than thinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .budget import ensure_within_budget
from .errors import DomainError
from .params import ModelParams
from .seeds import SeedSpec

DEFAULT_POINT_FLOOR = -5.0


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
class SpinePath:
    """Strictly increasing split times of the fragment containing the origin."""

    split_times: np.ndarray


def _frame_budget_bytes(k: int, n_max: int) -> int:
    # Peak: child frame of k^n doubles plus its parent of k^(n-1).
    if n_max <= 0:
        return 16
    return 8 * (k**n_max + k ** (n_max - 1))


def brw_frames(
    params: ModelParams, n_max: int, seed: SeedSpec
) -> Iterator[GenerationFrame]:
    """Yield generations 0..n_max of one replica, streaming one frame at a time.

    Bit-reproducible: the generation-n frame consumes exactly k^n draws from
    the replica stream, in leaf order, before generation n+1 starts.
    """
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be a non-negative integer, got {n_max!r}")
    ensure_within_budget(
        _frame_budget_bytes(params.k, n_max),
        f"brw sweep to generation {n_max} (k={params.k})",
    )
    rng = seed.rng()
    k, q = params.k, params.q
    frame = rng.standard_exponential(1)
    yield GenerationFrame(0, frame)
    for n in range(1, n_max + 1):
        parent = frame * q
        frame = None  # keeps the streaming peak at one frame plus its parent
        frame = rng.standard_exponential(k * parent.size)
        # children of parent p occupy slots p*k .. p*k+k-1
        for j in range(k):
            frame[j::k] += parent
        yield GenerationFrame(n, frame)


def summarize_frame(
    frame: GenerationFrame, gamma: float, floor: float = DEFAULT_POINT_FLOOR
) -> GenerationSummary:
    shift = gamma * frame.n
    k_min = float(frame.values.min())
    k_max = float(frame.values.max())
    pts = frame.values[frame.values >= floor + shift] - shift
    return GenerationSummary(frame.n, k_min, k_max, k_max - shift, np.sort(pts))


def brw_sweep(
    params: ModelParams,
    n_max: int,
    seed: SeedSpec,
    floor: float = DEFAULT_POINT_FLOOR,
) -> list[GenerationSummary]:
    """Summaries of generations 0..n_max for one replica."""
    summaries = []
    for frame in brw_frames(params, n_max, seed):
        summaries.append(summarize_frame(frame, params.gamma, floor))
        # drop it now, so brw_frames holds one frame plus its parent at a time
        del frame
    return summaries


def kmin_kmax_sweep(
    params: ModelParams,
    n_max: int,
    replicas: int,
    master_seed: int,
    floor: float = DEFAULT_POINT_FLOOR,
) -> np.ndarray:
    """Per-(replica, generation) extremes as a structured array.

    Fields: replica, n, k_min, k_max, tau. Replica r uses the stream
    (master_seed, r); rows are emitted in replica-major order, so the result
    is independent of any scheduling.
    """
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas!r}")
    dtype = np.dtype(
        [("replica", "i8"), ("n", "i8"), ("k_min", "f8"), ("k_max", "f8"), ("tau", "f8")]
    )
    out = np.empty(replicas * (n_max + 1), dtype=dtype)
    row = 0
    for r in range(replicas):
        for s in brw_sweep(params, n_max, SeedSpec(master_seed, r), floor):
            out[row] = (r, s.n, s.k_min, s.k_max, s.tau)
            row += 1
    return out


def tree_matrices(
    params: ModelParams, n_max: int, replicas: int, seed: SeedSpec
) -> list[np.ndarray]:
    """All generations 0..n_max for many replicas at once.

    Returns one (replicas, k^n) matrix per generation, drawn from a single
    stream; meant for small trees (joint-law and tuple-counting checks) where
    every generation must be retained.
    """
    ensure_within_budget(
        16 * replicas * params.k**max(n_max, 1),
        f"tree matrices to generation {n_max} x {replicas} replicas",
    )
    rng = seed.rng()
    k, q = params.k, params.q
    gen = rng.standard_exponential((replicas, 1))
    out = [gen]
    for n in range(1, n_max + 1):
        gen = q * np.repeat(gen, k, axis=1) + rng.standard_exponential(
            (replicas, k**n)
        )
        out.append(gen)
    return out


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
