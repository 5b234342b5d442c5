"""Run one fragsim benchmark workload and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: fragsim is imported from ``src/`` there,
and the run stops with exit code 2 if it is missing. Workloads are defined
in ``workloads.py`` and described in ``NOTES.md``.

With ``--trace 0`` the job is repeated for ``--seconds`` and the end-to-end
metrics are reported: set-up time (median over fresh processes started
between rounds of jobs), median wall time of the job, peak resident memory,
bytes written per job and the share of operations that passed. With ``--trace 1`` untraced and traced jobs
alternate and the per-layer metrics of ``spans.py`` are reported, with the
tracing overhead. Every job's outputs are checked; CSV digests are compared
with those recorded in ``reference/digests.json`` for the seed and
parameters they were recorded under, and with the first job of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5

# A fresh interpreter that imports fragsim and builds one workload's inputs.
_SETUP_SNIPPET = """
import sys
from pathlib import Path
root, bench, name, seed, outdir = sys.argv[1:6]
sys.path[:0] = [str(Path(root) / "src"), bench]
import workloads
workloads.WORKLOADS[name].inputs(int(seed), Path(outdir))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(root: Path, name: str, seed: int, outdir: Path) -> float:
    """Time from starting a fresh process until the workload is ready."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(root), str(BENCH_DIR), name,
         str(seed), str(outdir)],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def git_describe(root: Path) -> str:
    if not (root / ".git").exists():
        return "not a git checkout"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(workload, seed: int, seconds: float, trace: bool, outdir: Path, setup) -> dict:
    """Repeat the job for ``seconds``; alternate untraced and traced jobs
    when ``trace`` is set. Returns the samples and the summed outcome.

    ``setup()`` times one set-up; it is sampled once per round of jobs, so
    that set-up and job times see the same stretch of machine time, and
    topped up to SETUP_RUNS samples at the end. Peak memory is read when the
    first job ends, before any output check can add to it.
    """
    import workloads
    from spans import Tracer

    recorded = workloads.recorded_digests(workload, seed)
    inputs = workload.inputs(seed, outdir)
    walls = {False: [], True: []}
    setups, out_bytes, layer_samples, problems = [], [], [], []
    totals = {"attempted": 0, "failed": 0, "known": 0}
    first_digests: dict = {}
    tracer = None
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        setups.append(setup())
        for traced in (False, True) if trace else (False,):
            for p in outdir.iterdir():
                p.unlink()
            tracer = Tracer() if traced else None
            try:
                with tracer or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    result = workload.job(inputs)
                    wall = time.perf_counter() - t0
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                outcome = workload.check(inputs, result)
            except Exception:
                outcome = workloads.Outcome()
                outcome.check(False, traceback.format_exc())
                wall = None
            for name, digest in outcome.digests.items():
                want = recorded.get(name, first_digests.get(name))
                if want is not None and digest != want:
                    source = "recorded" if name in recorded else "first job's"
                    outcome.fail_all_replicas(f"{name}: digest differs from the {source}")
                first_digests.setdefault(name, digest)
            totals["attempted"] += outcome.attempted
            totals["failed"] += outcome.failed
            totals["known"] += outcome.known
            problems += outcome.problems
            if wall is not None:
                walls[traced].append(wall)
                out_bytes.append(dir_bytes(outdir))
                if traced:
                    layer_samples.append(tracer.metrics())
        if time.perf_counter() - started >= seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup())
    if tracer is not None:
        tracer.dump(outdir.parent / f"{workload.name}-seed{seed}-spans.json")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "walls": walls,
        "out_bytes": out_bytes,
        "layer_samples": layer_samples,
        "problems": problems,
        **totals,
    }


def end_to_end(run: dict) -> dict:
    attempted, failed = run["attempted"], run["failed"]
    return {
        "setup_s": (run["setup_s"], "s"),
        "wall_s": (statistics.median(run["walls"][False]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "out_mb": (statistics.median(run["out_bytes"]) / 1e6, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(run: dict) -> dict:
    samples = run["layer_samples"]
    out = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    walls = run["walls"]
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fragsim" / "__init__.py").is_file():
        print(f"run.py: no fragsim package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # run_experiment records `git describe`; keep git from searching the
    # directories above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    import numpy

    import fragsim
    import workloads

    if Path(fragsim.__file__).resolve().parent != (src / "fragsim").resolve():
        print(f"run.py: imported fragsim from {fragsim.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    outdir = BENCH_DIR / "out" / workload.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    run = measure(workload, args.seed, args.seconds, bool(args.trace), outdir,
                  lambda: setup_seconds(root, workload.name, args.seed, outdir))
    metrics = per_layer(run) if args.trace else end_to_end(run)

    provenance = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fragsim": fragsim.__version__,
        "git_describe": git_describe(root),
        "workload": workload.name,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": {"untraced": len(run["walls"][False]), "traced": len(run["walls"][True])},
    }
    correct = run["failed"] == run["known"]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "provenance": provenance, "known_failures": run["known"],
              "wall_samples_s": run["walls"][False],
              "traced_wall_samples_s": run["walls"][True], "problems": run["problems"][:50]}
    result_file = BENCH_DIR / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(provenance))
    print(f"{workload.name}: {provenance['jobs']} jobs, {run['attempted']} operations, "
          f"{run['failed']} failed ({run['known']} known from the laws baseline), "
          f"fail_frac {run['failed'] / run['attempted']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    for problem in run["problems"][:10]:
        print(f"problem: {problem.strip()}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
