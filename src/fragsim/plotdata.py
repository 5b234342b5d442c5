"""Shape persisted run records into plot-ready CSV tables (no rendering)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import SpecError
from .experiment import SCHEMA_VERSION, ExperimentSpec, format_csv, read_record_files
from .predictors import largest_depth_window
from .stats import intensity_profile

KINDS = ("staircase", "windows", "intensity")

_KIND_ENGINE = {"staircase": "gillespie", "windows": "gillespie", "intensity": "brw"}


def _replica_staircases(rows: list[list[str]]) -> dict[int, list[tuple[float, int]]]:
    out: dict[int, list[tuple[float, int]]] = {}
    for row in rows:
        # columns: schema_version, replica, event_time, m_t, M_t
        out.setdefault(int(row[1]), []).append((float(row[2]), int(row[3])))
    return out


def emit_plotdata(in_path: str | Path, kind: str, out_path: str | Path) -> int:
    """Write the requested table; returns the number of data rows."""
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {KINDS}, got {kind!r}")
    header, rows, meta = read_record_files(in_path)
    spec = ExperimentSpec.from_dict(meta.get("spec", {}))
    if spec.engine != _KIND_ENGINE[kind]:
        raise SpecError(
            f"kind {kind!r} needs a {_KIND_ENGINE[kind]!r} record, got {spec.engine!r}"
        )

    if kind == "staircase":
        columns = ("replica", "t", "value")
        out_rows = [
            (int(r[1]), float(r[2]), int(r[3])) for r in rows
        ]
    elif kind == "windows":
        params = spec.params()
        t_end = spec.t_end
        columns = ("replica", "t", "m_t", "lo_int", "hi_int")
        out_rows = []
        for replica, stairs in sorted(_replica_staircases(rows).items()):
            times = np.array([t for t, _ in stairs])
            values = np.array([v for _, v in stairs])
            t = max(math.e * 1.05, times[0] if times.size else math.e * 1.05)
            while t <= t_end:
                i = int(np.searchsorted(times, t, side="right")) - 1
                window = largest_depth_window(params, t)
                out_rows.append(
                    (replica, t, int(values[max(i, 0)]), window.lo_int, window.hi_int)
                )
                t *= 1.05
    else:  # intensity
        points = meta.get("extras", {}).get("points_final_generation", {})
        edges = np.arange(math.floor(spec.floor), 6.0)
        columns = ("s_lo", "s_hi", "mean_count", "expected_count")
        out_rows = []
        if points:
            reports = intensity_profile(
                [points[r] for r in sorted(points, key=int)],
                list(zip(edges[:-1], edges[1:])),
                spec.params().q,
            )
            out_rows = [
                (float(r.interval[0]), float(r.interval[1]), r.mean_count, r.expected)
                for r in reports
            ]

    Path(out_path).write_text(format_csv(columns, out_rows))
    return len(out_rows)


__all__ = ["KINDS", "emit_plotdata", "SCHEMA_VERSION"]
