"""Shape persisted run records into plot-ready CSV tables (no rendering)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import SpecError
from .experiment import _COLUMNS, ExperimentSpec, format_csv, read_rows, read_sidecar
from .predictors import largest_depth_window
from .stats import PROBE_RATIO, intensity_profile

_KIND_ENGINE = {"staircase": "gillespie", "windows": "gillespie", "intensity": "brw"}
KINDS = tuple(_KIND_ENGINE)


def _staircases(in_path: str | Path) -> list[tuple[int, list[tuple[float, int]]]]:
    """Each replica of a gillespie record with its (event_time, m_t) steps,
    by replica. A staircase must start at t = 0.0, as the engine writes it."""
    _, rows = read_rows(in_path, _COLUMNS["gillespie"])
    out: dict[int, list[tuple[float, int]]] = {}
    for line, (_, replica, t, m_t, _) in enumerate(rows, 2):
        try:
            replica, t, m_t = int(replica), float(t), int(m_t)
        except ValueError as exc:
            raise SpecError(f"record {in_path} line {line}: {exc}") from None
        if replica not in out and t != 0.0:
            raise SpecError(
                f"record {in_path} line {line}: replica {replica} starts at t = {t!r}, not 0.0"
            )
        out.setdefault(replica, []).append((t, m_t))
    return sorted(out.items())


def emit_plotdata(in_path: str | Path, kind: str, out_path: str | Path) -> int:
    """Write the requested table; returns the number of data rows.

    Only staircase and windows parse the CSV rows; intensity reads the
    sidecar alone."""
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {KINDS}, got {kind!r}")
    meta = read_sidecar(in_path)
    spec = ExperimentSpec.from_dict(meta.get("spec", {}))
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
        points = meta.get("extras", {}).get("points_final_generation", {})
        edges = np.arange(math.floor(spec.floor), 6.0)
        reports = intensity_profile(
            [points[r] for r in sorted(points, key=int)],
            list(zip(edges[:-1], edges[1:])),
            spec.params().q,
        ) if points else []
        out_rows = [
            (float(r.interval[0]), float(r.interval[1]), r.mean_count, r.expected)
            for r in reports
        ]

    Path(out_path).write_text(format_csv(columns, out_rows))
    return len(out_rows)
