"""Shape persisted run records into plot-ready CSV tables (no rendering)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .budget import ensure_within_budget
from .errors import SpecError
from .experiment import (
    _COLUMNS, INTENSITY_TOP, ExperimentSpec, read_rows, read_sidecar, sidecar_path, write_csv,
)
from .predictors import largest_depth_window
from .stats import PROBE_RATIO, interval_count_reports

_KIND_ENGINE = {"staircase": "gillespie", "windows": "gillespie", "intensity": "brw"}
KINDS = tuple(_KIND_ENGINE)

# Memory per intensity bin besides its 8-byte count per replica: interval,
# report and row (tracemalloc peak of a 705-bin table, 150 to 260 bytes).
INTENSITY_BIN_BYTES = 300


def _bin_counts(sidecar: Path, extras) -> list[list]:
    """Each replica's [first, counts] in a brw sidecar's extras, in replica
    order. No unit_bin_counts object (a sidecar written before them), a
    replica that is not a decimal integer, or an entry that is not [first,
    [count, ...]] of ints, counts in [0, 2^63) below INTENSITY_TOP, raise
    SpecError naming the sidecar and the replica."""
    fault = f"malformed sidecar {sidecar}: "
    if not isinstance(extras, dict):
        raise SpecError(fault + "its extras are not a JSON object")
    if not isinstance(binned := extras.get("unit_bin_counts"), dict):
        raise SpecError(fault + "no unit_bin_counts object; re-run the simulation to write them")
    if bad := [r for r in binned if not r.isdecimal()]:
        raise SpecError(fault + f"replica {bad[0]!r} is not an integer")
    entries = sorted(binned.items(), key=lambda item: int(item[0]))
    for r, entry in entries:
        if not (
            type(entry) is list and len(entry) == 2 and type(entry[0]) is int
            and type(entry[1]) is list and entry[0] + len(entry[1]) <= INTENSITY_TOP
            and all(type(c) is int and 0 <= c < 2**63 for c in entry[1])
        ):
            raise SpecError(fault + f"replica {r}: bin counts are not [first, [count, ...]]")
    return [entry for _, entry in entries]


def _staircases(in_path: str | Path) -> list[tuple[int, list[tuple[float, int]]]]:
    """Each replica of a gillespie record with its (event_time, m_t) steps,
    by replica. As the engine writes them, a replica's rows must be
    contiguous, and its staircase must start at t = 0.0 and never go back
    in time; else SpecError names the file and the line."""
    _, rows = read_rows(in_path, _COLUMNS["gillespie"])
    out: dict[int, list[tuple[float, int]]] = {}
    last = None
    for line, (_, replica, t, m_t, _) in enumerate(rows, 2):
        try:
            replica, t, m_t = int(replica), float(t), int(m_t)
        except ValueError as exc:
            raise SpecError(f"record {in_path} line {line}: {exc}") from None
        steps = out.setdefault(replica, [])
        fault = (
            f"starts at t = {t!r}, not 0.0" if not steps and t != 0.0
            else "resumes after another replica's rows" if steps and replica != last
            else f"goes back in time to t = {t!r}" if steps and not t >= steps[-1][0]
            else None
        )
        if fault:
            raise SpecError(f"record {in_path} line {line}: replica {replica} {fault}")
        steps.append((t, m_t))
        last = replica
    return sorted(out.items())


def emit_plotdata(in_path: str | Path, kind: str, out_path: str | Path) -> int:
    """Write the requested table; returns the number of data rows.

    Only staircase and windows parse the CSV rows; intensity reads the
    sidecar alone, the bin counts the run wrote there and not its points."""
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {KINDS}, got {kind!r}")
    sidecar = sidecar_path(in_path)
    meta = read_sidecar(in_path)
    try:
        spec = ExperimentSpec.from_dict(meta.get("spec", {}))
    except SpecError as exc:
        raise SpecError(f"malformed sidecar {sidecar}: {exc}") from None
    if spec.engine != _KIND_ENGINE[kind]:
        raise SpecError(
            f"kind {kind!r} needs a {_KIND_ENGINE[kind]!r} record, got {spec.engine!r}"
        )

    if kind == "staircase":
        columns = ("replica", "t", "value")
        out_rows = [(r, t, m_t) for r, steps in _staircases(in_path) for t, m_t in steps]
    elif kind == "windows":
        columns = ("replica", "t", "m_t", "lo_int", "hi_int")
        probes, t = [], math.e * PROBE_RATIO  # one grid: every staircase starts at 0.0
        while t <= spec.t_end:
            probes.append(t)
            t *= PROBE_RATIO
        params = spec.params()
        windows = [largest_depth_window(params, t) for t in probes]
        out_rows = []
        for r, steps in _staircases(in_path):
            at = np.searchsorted([t for t, _ in steps], probes, "right") - 1
            out_rows += [
                (r, t, steps[i][1], w.lo_int, w.hi_int) for t, i, w in zip(probes, at, windows)
            ]
    else:  # intensity
        columns = ("s_lo", "s_hi", "mean_count", "expected_count")
        out_rows = _intensity_rows(spec, _bin_counts(sidecar, meta.get("extras", {})))

    write_csv(out_path, columns, out_rows)
    return len(out_rows)


def _intensity_rows(spec: ExperimentSpec, binned: list) -> list[tuple]:
    """Mean count per unit bin [i, i + 1), floor(spec.floor) <= i <
    INTENSITY_TOP, over the replicas' [first, counts], against the limit
    intensity; no rows without replicas."""
    lo = math.floor(spec.floor)
    bins = INTENSITY_TOP - lo
    if not binned or bins <= 0:
        return []
    ensure_within_budget(
        bins * (INTENSITY_BIN_BYTES + 8 * len(binned)),
        f"intensity bins from floor {spec.floor!r} x {len(binned)} replicas",
    )
    counts = np.zeros((bins, len(binned)))
    for r, (first, count) in enumerate(binned):
        kept = count[max(lo - first, 0) :]  # no finite point lies below first
        at = max(first, lo) - lo
        counts[at : at + len(kept), r] = kept
    intervals = [(float(i), float(i + 1)) for i in range(lo, INTENSITY_TOP)]
    return [
        (r.interval[0], r.interval[1], r.mean_count, r.expected)
        for r in interval_count_reports(intervals, counts, spec.params().q)
    ]
