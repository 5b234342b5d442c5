"""Experiment configuration, execution and persistence.

An ExperimentSpec fully determines a run: identical specs yield
byte-identical CSV bodies regardless of replica scheduling, because every
replica derives its stream from (master_seed, replica_index) and rows are
emitted in replica-index order. CSV floats use the shortest round-trip
decimal representation; run metadata that legitimately varies (wall clock)
lives in the JSON sidecar, never in the CSV.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass
from itertools import repeat
from pathlib import Path
from typing import Any

from .brw import DEFAULT_POINT_FLOOR, block_rows, spine_sample, sweep_replicas
from .errors import SpecError
from .gillespie import gillespie_run
from .params import ModelParams
from .seeds import SeedSpec

SCHEMA_VERSION = 1

ENGINES = ("brw", "gillespie", "spine")

_COLUMNS = {
    "brw": ("replica", "n", "k_min", "k_max", "tau"),
    "gillespie": ("replica", "event_time", "m_t", "M_t"),
    "spine": ("replica", "i", "split_time"),
}

TAILS_COLUMNS = ("q", "n", "t", "survival", "abs_error")


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible run: parameters, engine, horizon, seeding, output."""

    k: int
    alpha: float
    engine: str
    n_max: int | None = None
    t_end: float | None = None
    replicas: int = 1
    master_seed: int = 0
    floor: float = DEFAULT_POINT_FLOOR
    out: str | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise SpecError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.engine in ("brw", "spine"):
            if self.n_max is None or self.t_end is not None:
                raise SpecError(
                    f"engine {self.engine!r} takes n_max and not t_end "
                    f"(got n_max={self.n_max!r}, t_end={self.t_end!r})"
                )
            if not (isinstance(self.n_max, int) and self.n_max >= 0):
                raise SpecError(f"n_max must be a non-negative integer")
        else:
            if self.t_end is None or self.n_max is not None:
                raise SpecError(
                    f"engine 'gillespie' takes t_end and not n_max "
                    f"(got n_max={self.n_max!r}, t_end={self.t_end!r})"
                )
            if not (isinstance(self.t_end, (int, float)) and self.t_end > 0):
                raise SpecError(f"t_end must be a positive number, got {self.t_end!r}")
        if not (isinstance(self.replicas, int) and self.replicas >= 1):
            raise SpecError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 1 << 64):
            raise SpecError(f"master_seed must be a 64-bit unsigned integer")
        if not (isinstance(self.floor, (int, float)) and math.isfinite(self.floor)):
            raise SpecError(f"floor must be a finite number, got {self.floor!r}")
        if not isinstance(self.alpha, (int, float)):
            raise SpecError(f"alpha must be a number, got {self.alpha!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise SpecError(f"out must be a path string, got {self.out!r}")
        # Surfaces DomainError on bad k/alpha at spec construction time.
        self.params()

    def params(self) -> ModelParams:
        try:
            return ModelParams(self.k, self.alpha)
        except Exception as exc:
            raise SpecError(str(exc)) from exc

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Unknown, missing and ill-typed fields raise SpecError."""
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        missing = [f.name for f in fields if f.default is MISSING and f.name not in data]
        if missing:
            raise SpecError(f"missing spec fields: {missing}")
        return cls(**data)


_CONFIG_TYPES = {
    "k": int,
    "alpha": float,
    "engine": str,
    "n_max": int,
    "t_end": float,
    "replicas": int,
    "master_seed": int,
    "floor": float,
    "out": str,
}


def read_config(path: str | Path) -> dict[str, Any]:
    """Read the [experiment] section of a key=value config file."""
    parser = configparser.ConfigParser()
    loaded = parser.read(str(path))
    if not loaded:
        raise SpecError(f"config file {path!r} not found or unreadable")
    if "experiment" not in parser:
        raise SpecError(f"config file {path!r} has no [experiment] section")
    out: dict[str, Any] = {}
    for key, raw in parser["experiment"].items():
        if key not in _CONFIG_TYPES:
            raise SpecError(f"unknown config key {key!r}")
        try:
            out[key] = _CONFIG_TYPES[key](raw)
        except ValueError as exc:
            raise SpecError(f"config key {key!r}: {exc}") from exc
    return out


@dataclass(frozen=True)
class ResultRecord:
    """Spec echo plus the rows that went into the CSV body."""

    spec: ExperimentSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    wall_clock_s: float
    version_tag: str
    extras: dict[str, Any]


def format_csv(columns: tuple[str, ...], rows: list[tuple]) -> str:
    # str of a Python float is its shortest round-trip repr
    lines = ["schema_version," + ",".join(columns)]
    for row in rows:
        lines.append(f"{SCHEMA_VERSION}," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _git_describe() -> str:
    """The git-describe tag of the checkout fragsim is imported from, or
    "unknown" outside one; the caller's working directory plays no part."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _block_payload(spec: ExperimentSpec, lo: int, hi: int):
    """Rows and sidecar extras for replicas lo..hi-1; top-level for pickling."""
    params = spec.params()
    replicas = range(lo, hi)
    seeds = [SeedSpec(spec.master_seed, r) for r in replicas]
    rows: list[tuple] = []
    if spec.engine == "brw":
        n_max = spec.n_max
        sweep = sweep_replicas(params, n_max, seeds, spec.floor, (n_max,))
        # .tolist() gives Python floats, whose repr the CSV cells rely on
        for r, k_min, k_max, tau in zip(
            replicas, sweep.k_min.tolist(), sweep.k_max.tolist(), sweep.tau.tolist()
        ):
            rows.extend(zip(repeat(r), range(n_max + 1), k_min, k_max, tau))
        points = {str(r): p.tolist() for r, p in zip(replicas, sweep.points[n_max])}
        return rows, {"points_final_generation": points}
    for r, seed in zip(replicas, seeds):
        if spec.engine == "gillespie":
            traj = gillespie_run(params, spec.t_end, seed)
            rows.extend(
                (r, float(t), int(m), int(big))
                for t, m, big in zip(traj.times, traj.min_depths, traj.max_depths)
            )
        else:
            split_times = spine_sample(params, spec.n_max, seed).tolist()
            rows.extend((r, i, x) for i, x in enumerate(split_times))
    return rows, {}


def _blocks(spec: ExperimentSpec) -> list[tuple[int, int]]:
    """Replica ranges [lo, hi) that one payload call runs: a BRW kernel block
    each, or one replica for the other engines."""
    size = block_rows(spec.k, spec.n_max) if spec.engine == "brw" else 1
    return [(lo, min(lo + size, spec.replicas)) for lo in range(0, spec.replicas, size)]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultRecord:
    """Execute every replica, optionally in parallel, and persist if out set.

    Output ordering is by replica index regardless of completion order, and
    workers communicate by value only, so the CSV body is independent of
    ``jobs``. At most min(jobs, blocks, CPUs) worker processes start.
    """
    if jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {jobs!r}")
    start = time.monotonic()
    blocks = _blocks(spec)
    los, his = zip(*blocks)
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        payloads = list(map(_block_payload, repeat(spec), los, his))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(_block_payload, repeat(spec), los, his))
    rows: list[tuple] = []
    merged_extras: dict[str, Any] = {}
    for payload_rows, extras in payloads:
        rows.extend(payload_rows)
        for key, value in extras.items():
            merged_extras.setdefault(key, {}).update(value)
    record = ResultRecord(
        spec=spec,
        columns=_COLUMNS[spec.engine],
        rows=rows,
        wall_clock_s=time.monotonic() - start,
        version_tag=_git_describe(),
        extras=merged_extras,
    )
    if spec.out is not None:
        write_record(record)
    return record


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def write_record(record: ResultRecord) -> None:
    out = Path(record.spec.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(format_csv(record.columns, record.rows))
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "spec": record.spec.to_dict(),
        "git_describe": record.version_tag,
        "wall_clock_s": record.wall_clock_s,
        "extras": record.extras,
    }
    # one line: without indent, json encodes the points in C
    sidecar_path(out).write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_record_files(csv_path: str | Path) -> tuple[list[str], list[list[str]], dict]:
    """Parse a written CSV plus sidecar back into header, raw rows, metadata."""
    text = Path(csv_path).read_text()
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    meta_file = sidecar_path(csv_path)
    meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
    return header, rows, meta
