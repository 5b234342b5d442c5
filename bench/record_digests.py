"""Record the CSV digests the benchmark checks at its default seed.

Run from the repository root, only when an engine is meant to draw or write
differently (a new engine, not a faster one):

    python3 bench/record_digests.py

For ``sweep_small`` and ``events`` it runs the job once at
``workloads.DEFAULT_SEED`` and writes the sha256 of every CSV it produced,
with the seed and workload parameters, to ``bench/reference/digests.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    recorded = {}
    for name in ("sweep_small", "events"):
        workload = workloads.WORKLOADS[name]
        outdir = BENCH_DIR / "out" / "digests" / name
        outdir.mkdir(parents=True, exist_ok=True)
        inputs = workload.inputs(workloads.DEFAULT_SEED, outdir)
        outcome = workload.check(inputs, workload.job(inputs))
        if outcome.failed:
            sys.exit(f"{name}: {outcome.failed} failed operations; not recording")
        recorded[name] = {
            "seed": workloads.DEFAULT_SEED,
            "params": workload.params(),
            "files": outcome.digests,
        }
    workloads.DIGEST_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
