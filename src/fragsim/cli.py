"""Command-line surface.

Exit codes: 0 all checks/runs succeed, 1 a verification check failed or
``tails`` could not resolve a row to TAILS_MAX_ABS_ERROR (no file is
written), 2 usage or configuration error (including budget violations and
I/O problems). Flags always win over config-file values.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .budget import ensure_within_budget
from .errors import FragsimError
from .experiment import (
    _CONFIG_TYPES,
    ENGINES,
    TAILS_COLUMNS,
    ExperimentSpec,
    read_config,
    run_experiment,
    write_csv,
)
from .laws import perpetuity_survival
from .plotdata import KINDS, emit_plotdata
from .verify import run_suite

# Largest survival abs_error `fragsim tails` writes; a worse row refuses the table.
TAILS_MAX_ABS_ERROR = 1e-9
# Memory per `fragsim tails` row, grid point to CSV line (tracemalloc peak).
TAILS_ROW_BYTES = 400


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep message terse
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fragsim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded replica sweep")
    sim.add_argument("engine", choices=ENGINES)
    sim.add_argument("--config", help="key=value config file; flags override it")
    for key, convert in _CONFIG_TYPES.items():
        if key != "engine":
            flag = "seed" if key == "master_seed" else key.replace("_", "-")
            sim.add_argument(f"--{flag}", type=convert, dest=key, default=argparse.SUPPRESS)
    sim.add_argument("--jobs", type=int, default=1)

    tails = sub.add_parser("tails", help="tabulate the exact survival function")
    tails.add_argument("--q", type=float, required=True)
    tails.add_argument("--n", type=int, required=True)
    tails.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    tails.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run a named acceptance suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--seed", type=int, default=42, dest="master_seed")

    plot = sub.add_parser("plotdata", help="export plot-ready CSV tables")
    plot.add_argument("--in", dest="in_path", required=True)
    plot.add_argument("--kind", required=True, choices=KINDS)
    plot.add_argument("--out", required=True)

    return parser


def _cmd_simulate(args) -> int:
    fields = {"k": 2, "alpha": 1.0}  # then the config file's values, then the flags
    if args.config:
        fields.update(read_config(args.config))
    fields.update((key, value) for key, value in vars(args).items() if key in _CONFIG_TYPES)
    spec = ExperimentSpec(**fields)
    record = run_experiment(spec, jobs=args.jobs)
    dest = spec.out if spec.out is not None else "<unpersisted>"
    print(
        f"{spec.engine}: {spec.replicas} replica(s), seed {spec.master_seed}, "
        f"{record.row_count} rows -> {dest} ({record.wall_clock_s:.2f}s)"
    )
    return 0


def _cmd_tails(args) -> int:
    try:
        lo, hi, step = (float(x) for x in args.t_grid.split(":"))
    except ValueError:
        raise FragsimError(f"--t-grid must be LO:HI:STEP, got {args.t_grid!r}")
    # np.arange's own length formula, so the charge is its row count
    count = (hi + step / 2 - lo) / step if step > 0 else math.nan
    if not (math.isfinite(count) and hi >= lo):
        raise FragsimError(f"bad t grid {args.t_grid!r}")
    ensure_within_budget(math.ceil(count) * TAILS_ROW_BYTES, f"--t-grid {args.t_grid}")
    rows = []
    for t in np.arange(lo, hi + step / 2, step):
        ev = perpetuity_survival(args.q, args.n, float(t))
        rows.append((args.q, args.n, float(t), ev.value, ev.abs_error))
    worst = max(rows, key=lambda row: row[4])
    if worst[4] > TAILS_MAX_ABS_ERROR:
        print(
            f"fragsim tails: survival unresolved at t={worst[2]!r}: abs_error "
            f"{worst[4]:.3g} > {TAILS_MAX_ABS_ERROR:g}; no file written",
            file=sys.stderr,
        )
        return 1
    write_csv(args.out, TAILS_COLUMNS, rows)
    print(f"tails: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.master_seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: observed {res.observed:.6g}, expected {res.expected}")
        failed += not res.passed
    print(f"verify {args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_plotdata(args) -> int:
    n = emit_plotdata(args.in_path, args.kind, args.out)
    print(f"plotdata {args.kind}: {n} rows -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "tails": _cmd_tails,
        "verify": _cmd_verify,
        "plotdata": _cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except FragsimError as exc:
        print(f"fragsim {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fragsim {args.command}: I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
