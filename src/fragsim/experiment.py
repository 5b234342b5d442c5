"""Experiment configuration, execution and persistence.

An ExperimentSpec fully determines a run: identical specs yield
byte-identical CSV bodies regardless of replica scheduling, because every
replica derives its stream from (master_seed, replica_index) and rows are
emitted in replica-index order. CSV floats use the shortest round-trip
decimal representation; run metadata that legitimately varies (wall clock)
lives in the JSON sidecar, never in the CSV.

A run's points live in its sidecar alone. A persisted run is written as
it goes: each slice of replicas has its points written to the sidecar, in
replica order, as soon as it is swept, and only its rows and its points'
unit-bin counts are kept until the CSV and the rest of the sidecar are
written at the end. A run without an output path computes no points.
"""

from __future__ import annotations

import configparser
import dataclasses
import errno
import json
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import MISSING, dataclass
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .brw import (
    DEFAULT_POINT_FLOOR,
    block_rows,
    block_threads,
    spine_sample,
    sweep_replicas,
    sweep_threads,
)
from .budget import ensure_within_budget, usable_cpus
from .errors import SpecError, check_int, check_real
from .gillespie import gillespie_run
from .params import ModelParams
from .seeds import SeedSpec

SCHEMA_VERSION = 1

# each engine's record columns, after schema_version
_COLUMNS = {
    "brw": ("replica", "n", "k_min", "k_max", "tau"),
    "gillespie": ("replica", "event_time", "m_t", "M_t"),
    "spine": ("replica", "i", "split_time"),
}
ENGINES = tuple(_COLUMNS)

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
        horizon, other = ("t_end", "n_max") if self.engine == "gillespie" else ("n_max", "t_end")
        if getattr(self, horizon) is None or getattr(self, other) is not None:
            raise SpecError(
                f"engine {self.engine!r} takes {horizon} and not {other} "
                f"(got n_max={self.n_max!r}, t_end={self.t_end!r})"
            )
        if horizon == "n_max":
            check_int("n_max", self.n_max, error=SpecError)
        else:
            check_real("t_end", self.t_end, positive=True, error=SpecError)
        check_int("replicas", self.replicas, 1, error=SpecError)
        check_int("master_seed", self.master_seed, below=1 << 64, error=SpecError)
        check_real("floor", self.floor, error=SpecError)
        check_real("alpha", self.alpha, positive=True, error=SpecError)
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
        """A non-object, and unknown, missing and ill-typed fields, raise
        SpecError."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {data!r}")
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        missing = [f.name for f in fields if f.default is MISSING and f.name not in data]
        if missing:
            raise SpecError(f"missing spec fields: {missing}")
        return cls(**data)


# The spec's fields, each with the converter that reads it from a config
# file or a `simulate` flag.
_CONFIG_TYPES = dict(
    k=int, alpha=float, engine=str, n_max=int, t_end=float,
    replicas=int, master_seed=int, floor=float, out=str,
)


def read_config(path: str | Path) -> dict[str, Any]:
    """Read the [experiment] section of a UTF-8 key=value config file, its
    values raw (a % is a %)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SpecError(f"config file {path!r}: {exc}") from None
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


@dataclass(frozen=True, eq=False)
class ResultRecord:
    """Spec echo plus the rows that go into the CSV body, with the run's
    wall clock and version tag. A brw run's points are not held: they go to
    the sidecar, and a run without ``out`` computes none.

    ``columns`` lists each slice's rows in replica order as a tuple of 1-D
    arrays, one per CSV column in _COLUMNS[engine] order: int64 for
    replica, n, i, m_t and M_t, float64 for the rest. Records compare by
    identity, since arrays have no single truth value."""

    spec: ExperimentSpec
    columns: list[tuple[np.ndarray, ...]]
    wall_clock_s: float
    version_tag: str

    @property
    def rows(self) -> Iterator[tuple]:
        """The CSV body's rows as tuples, built _CSV_BATCH at a time anew on
        each access; .tolist() gives Python ints and floats, whose str is
        the CSV cell."""
        for columns in self.columns:
            for lo in range(0, len(columns[0]), _CSV_BATCH):
                yield from zip(*(column[lo : lo + _CSV_BATCH].tolist() for column in columns))

    @property
    def row_count(self) -> int:
        return sum(len(columns[0]) for columns in self.columns)


# CSV lines formatted and written at a time, and record rows built at a time
_CSV_BATCH = 1024


def write_csv(path: str | Path, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Write a schema_version header and then one line per row, a batch of
    _CSV_BATCH lines at a time, so no string or list of the whole file is
    ever held. str of a Python float is its shortest round-trip repr."""
    rows = iter(rows)
    prefix = f"{SCHEMA_VERSION},"
    with Path(path).open("w") as f:
        f.write("schema_version," + ",".join(columns) + "\n")
        while batch := list(islice(rows, _CSV_BATCH)):
            f.write("".join([prefix + ",".join(map(str, row)) + "\n" for row in batch]))


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


def _brw_slice(spec: ExperimentSpec, replicas: range) -> tuple[tuple, dict[str, Any]]:
    """Columns of the brw replicas in ``replicas``, from one sweep_replicas
    call, and their final-generation points if the run is persisted (else
    none are computed)."""
    n_max = spec.n_max
    seeds = [SeedSpec(spec.master_seed, r) for r in replicas]
    wanted = () if spec.out is None else (n_max,)
    sweep = sweep_replicas(spec.params(), n_max, seeds, spec.floor, wanted)
    # the sweep's (replicas, n_max + 1) arrays in row-major order: each
    # replica, then each n
    columns = (
        np.repeat(np.arange(replicas.start, replicas.stop), n_max + 1),
        np.tile(np.arange(n_max + 1), len(replicas)),
        sweep.k_min.ravel(),
        sweep.k_max.ravel(),
        sweep.tau.ravel(),
    )
    # float64 arrays, listed only as the sidecar is written
    return columns, dict(zip(map(str, replicas), sweep.points.get(n_max, ())))


def _block_payload(spec: ExperimentSpec, lo: int, hi: int) -> Iterator[tuple[tuple, dict]]:
    """Columns and points of replicas lo..hi-1, one slice at a time in
    replica order. A brw slice is one sweep_replicas call over a block on
    each of its threads, block_rows * block_threads replicas; the other
    engines have no points, and their replicas' columns are joined into one
    slice for the range."""
    if spec.engine == "brw":
        per_block = block_rows(spec.k, spec.n_max)
        size = per_block * block_threads(spec.k, spec.n_max, per_block)
        for start in range(lo, hi, size):
            # no local holds a slice while the next one is swept
            yield _brw_slice(spec, range(start, min(start + size, hi)))
        return
    params = spec.params()
    seeds = (SeedSpec(spec.master_seed, r) for r in range(lo, hi))
    if spec.engine == "spine":  # split times S_0..S_n_max of each replica
        width = spec.n_max + 1
        times = np.concatenate([spine_sample(params, spec.n_max, seed) for seed in seeds])
        yield (np.repeat(np.arange(lo, hi), width), np.tile(np.arange(width), hi - lo), times), {}
        return
    parts = []  # each replica's event times and extreme depths
    for seed in seeds:
        traj = gillespie_run(params, spec.t_end, seed)
        parts.append((traj.times, traj.min_depths, traj.max_depths))
    replicas = np.repeat(np.arange(lo, hi), [times.size for times, _, _ in parts])
    yield (replicas, *map(np.concatenate, zip(*parts))), {}


def _range_slices(spec: ExperimentSpec, lo: int, hi: int) -> list[tuple[tuple, dict]]:
    """Every slice of replicas lo..hi-1, listed: what a pool worker returns
    by value, its columns pickled as arrays; top-level for pickling."""
    return list(_block_payload(spec, lo, hi))


def _worker_ranges(spec: ExperimentSpec, jobs: int) -> list[tuple[int, int]]:
    """Replica ranges [lo, hi), one per worker: min(jobs, blocks, CPUs)
    contiguous runs of whole blocks, a block being a BRW kernel block or one
    replica of another engine. A BRW sweep that threads its blocks is one
    range, so its threads share one memory budget, not one per process."""
    size = block_rows(spec.k, spec.n_max) if spec.engine == "brw" else 1
    blocks = -(-spec.replicas // size)
    workers = min(jobs, blocks, usable_cpus())
    if spec.engine == "brw" and sweep_threads(spec.k, spec.n_max, size):
        workers = 1
    cuts = [min(i * blocks // workers * size, spec.replicas) for i in range(workers + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultRecord:
    """Execute every replica, optionally in parallel, and persist if out set.

    Each worker runs one range of replicas; one worker runs in this
    process, more in a process pool, and each returns its range's slices by
    value. Slices are taken in replica order, so the CSV and the sidecar do
    not depend on ``jobs``. Each slice's columns are kept for the record.
    With ``out`` set, each slice's points go to the sidecar as soon as the
    slice is taken and only their bin counts are kept, as text, so a brw
    run holds its rows, 8 bytes a cell, its counts and one slice's points.
    Without ``out``, no points are computed and nothing is written.
    wall_clock_s spans the replicas and the writing of their points, not
    the CSV. A run that raises leaves the files at ``out`` as they were.
    """
    check_int("jobs", jobs, 1, error=SpecError)
    start = time.monotonic()
    ranges = _worker_ranges(spec, jobs)
    with ExitStack() as stack:
        if len(ranges) == 1:
            slices = _block_payload(spec, *ranges[0])
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=len(ranges)))
            slices = chain.from_iterable(pool.map(_range_slices, repeat(spec), *zip(*ranges)))
        sidecar = None if spec.out is None else stack.enter_context(_Sidecar(spec.out))
        columns: list[tuple[np.ndarray, ...]] = []
        for slice_columns, slice_points in slices:
            columns.append(slice_columns)
            if sidecar is not None:
                sidecar.points(slice_points.items())
            del slice_points  # let the next slice's sweep run without it
        record = ResultRecord(
            spec=spec,
            columns=columns,
            wall_clock_s=time.monotonic() - start,
            version_tag=_git_describe(),
        )
        if sidecar is not None:
            write_record(record, sidecar)
    return record


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


# the first line of a brw sidecar with points: sorted keys put them first
_POINTS_HEAD = '{"extras": {"points_final_generation": {'

# the upper edge of the intensity table's unit bins [i, i + 1)
INTENSITY_TOP = 5


def _unit_bin_counts(points: np.ndarray) -> tuple[int, np.ndarray]:
    """One replica's points as (first, counts) in the unit bins [i, i + 1)
    from first, the floor of its lowest finite point, up to INTENSITY_TOP,
    NaN and +-inf in none; the counts are charged to the budget first."""
    floors = np.floor(points[(points > -np.inf) & (points < INTENSITY_TOP)])
    first = int(floors.min(initial=INTENSITY_TOP))
    ensure_within_budget(
        8 * (INTENSITY_TOP - first), f"intensity bins from a point at {first:.6g}"
    )
    return first, np.bincount((floors - first).astype(np.intp))


class _Sidecar:
    """The sidecar of the record at ``csv_path``, written front to back into
    a temporary file beside it, while write_record writes the CSV into
    ``csv_temp``, another one; close() moves both into place once both are
    whole. Used as a context manager, it deletes both temporary files on the
    way out, so a record that is not closed leaves no trace.

    Points given to points() come first, one replica per line after the
    _POINTS_HEAD line, each '"r": [...],' (the last with no comma), then
    the line '}, "unit_bin_counts": {"r":[first,[count,...]],...}}, ' and
    the rest of the keys. Only one replica's points are held, as floats or
    text, at a time; their _unit_bin_counts are held as text, one string a
    slice. A sidecar given no points, a gillespie or spine one, is
    json.dumps(..., sort_keys=True) of it on one line with empty extras.
    Either way its values are those json.dumps gives, with sorted keys but
    for the replicas, which come in the order they were given."""

    def __init__(self, csv_path: str | Path):
        self.csv = Path(csv_path)
        self.path = sidecar_path(csv_path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.csv_temp = self.csv.with_name(f"{self.csv.name}.{os.getpid()}.tmp")
        self.temp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        self.file = self.temp.open("w")
        self.replicas = 0  # replicas whose points are written
        self.counts: list[str] = []  # each slice's unit_bin_counts entries

    def __enter__(self) -> "_Sidecar":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()
        self.temp.unlink(missing_ok=True)
        self.csv_temp.unlink(missing_ok=True)

    def points(self, points: Iterable[tuple[str, np.ndarray]]) -> None:
        """Write each (replica, points) pair on a line of its own; keep its bin counts."""
        counts = []
        for r, values in points:
            first, binned = _unit_bin_counts(values)
            key = json.dumps(r)
            lead = ",\n" if self.replicas else _POINTS_HEAD + "\n"
            self.file.write(f"{lead}{key}: {json.dumps(values, default=np.ndarray.tolist)}")
            counts.append(f"{key}:[{first},[" + ",".join(map(str, binned.tolist())) + "]]")
            self.replicas += 1
        self.counts.append(",".join(counts))

    def close(self, record: ResultRecord) -> None:
        """Write the rest of the sidecar, the counts and ``record``'s spec,
        tag and wall clock; then move the CSV and the sidecar into place."""
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "spec": record.spec.to_dict(),
            "git_describe": record.version_tag,
            "wall_clock_s": record.wall_clock_s,
        }
        if self.replicas:
            counts = '\n}, "unit_bin_counts": {' + ",".join(self.counts) + "}}, "
            self.file.write(counts + json.dumps(sidecar, sort_keys=True)[1:] + "\n")
        else:
            self.file.write(json.dumps({**sidecar, "extras": {}}, sort_keys=True) + "\n")
        self.file.close()
        os.replace(self.csv_temp, self.csv)
        os.replace(self.temp, self.path)


def write_record(record: ResultRecord, sidecar: _Sidecar) -> None:
    """Write ``record``'s CSV and the rest of ``sidecar``, which
    run_experiment wrote its points into, and move both into place; a raise
    before that leaves the files at ``out`` as they were."""
    write_csv(sidecar.csv_temp, _COLUMNS[record.spec.engine], record.rows)
    sidecar.close(record)


def read_rows(csv_path: str | Path, columns: tuple[str, ...]) -> tuple[list[str], list[list[str]]]:
    """Parse a written CSV into its header and raw rows, row i being line
    i + 2. The header must be schema_version and then ``columns``, and every
    row must hold this SCHEMA_VERSION and one cell per column; else
    SpecError names the file and the line."""
    text = Path(csv_path).read_text()
    if not text:
        raise SpecError(f"record {csv_path} is empty: no header line")
    header, *rows = (line.split(",") for line in text.removesuffix("\n").split("\n"))
    if header != ["schema_version", *columns]:
        want = ",".join(("schema_version", *columns))
        raise SpecError(f"record {csv_path} line 1: header {','.join(header)!r}, not {want!r}")
    for line, row in enumerate(rows, 2):
        if row[0] != str(SCHEMA_VERSION) or len(row) != len(header):
            raise SpecError(
                f"record {csv_path} line {line}: expected {len(header)} cells with"
                f" schema_version {SCHEMA_VERSION}, got {','.join(row)!r}"
            )
    return header, rows


def _distinct_keys(path: Path, pairs: list[tuple[str, Any]]) -> dict:
    """json.loads' object_pairs_hook for the sidecar at ``path``: a key that
    one object repeats, whose last value json.loads would keep, is a SpecError."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise SpecError(f"malformed sidecar {path}: duplicated key {key!r}")
        out[key] = value
    return out


def read_sidecar(csv_path: str | Path) -> dict:
    """Metadata of the record written at csv_path: json.loads of its
    sidecar, less any points_final_generation in its extras, which nothing
    in the package reads. The CSV must exist, although only the sidecar is
    read. One whose first line is _POINTS_HEAD is read a line at a time: a
    line '"r": [...],' is stepped over once the next line ends in ',' too,
    checked for shape only (a '"' first, '],' last) and not decoded. The
    head, the line that stopped this and the rest go through json.loads, as
    does any other sidecar, so a line cut, dropped or joined to the next
    reads as json.loads reads the file. A malformed sidecar raises
    SpecError naming file and line, or the key that an object repeats."""
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(csv_path))
    path = sidecar_path(csv_path)
    skipped = 0  # lines stepped over, not in the text json.loads reads
    with path.open() as f:
        text = f.readline()
        if text == _POINTS_HEAD + "\n":
            # a held line keeps its comma until the next line is an entry
            # too, lest '"r": [...],' then '}}' read as valid; it starts
            # with a key, lest a bare ',' read as no replica at all
            held, line = f.readline(), ""
            while held[:1] == '"' and held[-3:] == "],\n" and (line := f.readline())[-2:] == ",\n":
                skipped += 1
                held, line = line, ""
            text += held + line
        try:
            meta = json.loads(text + f.read(), object_pairs_hook=partial(_distinct_keys, path))
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno + skipped} column {exc.colno}"
            raise SpecError(f"malformed sidecar {path}: {exc.msg} at {where}") from None
    if not isinstance(meta, dict):
        raise SpecError(f"malformed sidecar {path}: not a JSON object")
    if isinstance(meta.get("extras"), dict):
        meta["extras"].pop("points_final_generation", None)
    return meta
