"""Tiny-scale smoke test of the benchmark.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a tampered CSV digest or law reference shows up as failed operations, and
that the benchmark refuses to run where there is no fragsim to build.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH_DIR / "out" / "smoke"
TINY = {
    "sweep_small": workloads.SweepSmall(n_max=5, replicas=120),
    "events": workloads.Events(log_t_end=6.0, replicas=3),
    "verify_all": workloads.VerifyAll(suite="tails", expected_checks=9),
}


def _outdir(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_emits_every_metric_with_its_unit(trace, kind):
    proc = _bench("--workload", "laws", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] > 0  # the recorded unresolved points
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units(kind)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workloads_emit_every_metric(name):
    measured = run.measure(TINY[name], 3, 0.0, True, _outdir(name), lambda: 0.1)
    assert measured["attempted"] > 0
    e2e = run.end_to_end(measured)
    layers = run.per_layer(measured)
    assert {k: u for k, (_, u) in e2e.items()} == _units("end_to_end")
    assert {k: u for k, (_, u) in layers.items()} == _units("per_layer")


@pytest.mark.parametrize("name", ["sweep_small", "events"])
def test_tampered_digest_fails_every_replica(name, monkeypatch):
    workload = TINY[name]
    clean = run.measure(workload, 3, 0.0, False, _outdir(name), lambda: 0.1)
    forged = {"run.csv": "0" * 64}
    monkeypatch.setattr(workloads, "recorded_digests", lambda *_: forged)
    tampered = run.measure(workload, 3, 0.0, False, _outdir(name), lambda: 0.1)
    assert tampered["failed"] - clean["failed"] == workload.replicas
    assert any("digest differs" in p for p in tampered["problems"])


def test_tampered_reference_fails_its_evaluation():
    laws = workloads.Laws()
    inputs = laws.inputs(1, _outdir("laws"))
    results = laws.job(inputs)
    clean = laws.check(inputs, results)
    assert clean.correct and clean.failed == clean.known > 0

    key = "perpetuity_survival q=0.3 n=5"
    refs = {k: list(v) for k, v in laws.references().items()}
    refs[key][100] += 1e-6
    laws._refs = refs
    tampered = laws.check(inputs, results)
    assert tampered.failed == clean.failed + 1
    assert not tampered.correct


def test_refuses_to_run_without_the_program():
    bare = _outdir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
