"""Spans around fragsim's layer boundaries, for the traced run.

``Tracer`` wraps every public function of the layer modules, on every name
that binds it inside fragsim: the defining module, each module that imports
it, and the package namespace. It also wraps ``SeedSpec.rng``. Nothing under
``src/`` changes; the wrappers are installed on entry and the originals put
back on exit. Generator functions (``brw_frames``) are left alone, because
their work runs after they return; it shows in the caller's self time.

Spans (name, start, end, parent, extra) are kept in memory and written out
at the end. A span's self time is its duration minus that of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "seeds",
    "brw",
    "gillespie",
    "experiment",
    "plotdata",
    "predictors",
    "stats",
    "verify",
    "laws",
    "qseries",
    "lefttail",
)

# Bytes one leaf costs the frame kernel, as computed rather than measured:
# the exponential draw writes it, and the parent add reads and writes it.
BRW_BYTES_PER_LEAF = 24
# A law evaluation whose own error bound exceeds this is unresolved.
UNRESOLVED_ABS_ERROR = 1e-9


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


def _write_record_bytes(args, _):
    from fragsim.experiment import sidecar_path

    out = args[0].spec.out
    return {"csv": _file_bytes(out), "sidecar": _file_bytes(sidecar_path(out))}


def _unresolved(_, result):
    return int(result.abs_error > UNRESOLVED_ABS_ERROR)


# Counters taken from a call's arguments and result, outside its span.
_HOOKS = {
    "brw.brw_sweep": lambda args, result: sum(args[0].k ** s.n for s in result),
    "gillespie.gillespie_run": lambda args, result: {
        "events": (sum(result.census.counts.values()) - 1) // (args[0].k - 1),
        "records": len(result.times),
    },
    "plotdata.emit_plotdata": lambda args, result: result,
    "verify.run_suite": lambda args, result: len(result),
    "experiment.write_record": _write_record_bytes,
    **{
        f"laws.{fn}": _unresolved
        for fn in (
            "perpetuity_survival",
            "perpetuity_density",
            "perpetuity_cdf",
            "perpetuity_survival_limit",
            "split_time_survival",
            "tagged_depth_pmf",
        )
    },
}


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name: str):
        spans, stack, hook, clock = self.spans, self._stack, _HOOKS.get(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if hook is not None:
                spans[index] = (name, start, end, parent, hook(args, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fragsim.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name == "fragsim" or name.startswith("fragsim."):
                for attr, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(module, attr, hit[1])
        seed_spec = importlib.import_module("fragsim.seeds").SeedSpec
        self._patch(seed_spec, "rng", self._wrap(seed_spec.rng, "seeds.rng"))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, x] for n, s, e, p, x in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "extra"],
                                    "spans": rows}))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layer = [s[0].split(".", 1)[0] for s in spans]
        self_s: dict[str, float] = defaultdict(float)
        entries: Counter = Counter()  # calls into a layer from outside it
        fn_s: dict[str, float] = defaultdict(float)
        fn_calls: Counter = Counter()
        extra: dict[str, list] = defaultdict(list)
        laws_outer_s = 0.0
        unresolved = 0
        for i, (name, start, end, parent, x) in enumerate(spans):
            duration = end - start
            self_s[layer[i]] += duration - child[i]
            fn_s[name] += duration
            fn_calls[name] += 1
            outer = parent < 0 or layer[parent] != layer[i]
            entries[layer[i]] += outer
            if x is not None:
                extra[name].append(x)
            if layer[i] == "laws" and outer:
                laws_outer_s += duration
                unresolved += x or 0

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        leaves = sum(extra["brw.brw_sweep"])
        replicas = fn_calls["brw.brw_sweep"]
        events = sum(x["events"] for x in extra["gillespie.gillespie_run"])
        written = extra["experiment.write_record"]
        return {
            "seeds.rng_calls": (fn_calls["seeds.rng"], "count"),
            "seeds.rng_s": (fn_s["seeds.rng"], "s"),
            "brw.calls": (replicas, "count"),
            "brw.self_s": (self_s["brw"], "s"),
            "brw.us_per_replica": (1e6 * ratio(fn_s["brw.brw_sweep"], replicas), "us"),
            "brw.leaves": (leaves, "count"),
            "brw.leaves_per_s": (ratio(leaves, self_s["brw"]), "1/s"),
            "brw.bytes_computed": (BRW_BYTES_PER_LEAF * leaves, "B"),
            "brw.summarize_s": (fn_s["brw.summarize_frame"], "s"),
            "experiment.self_s": (self_s["experiment"], "s"),
            "experiment.write_s": (fn_s["experiment.write_record"], "s"),
            "experiment.csv_mb": (sum(w["csv"] for w in written) / 1e6, "MB"),
            "experiment.sidecar_mb": (sum(w["sidecar"] for w in written) / 1e6, "MB"),
            "plotdata.self_s": (self_s["plotdata"], "s"),
            "plotdata.rows": (sum(extra["plotdata.emit_plotdata"]), "count"),
            "gillespie.calls": (fn_calls["gillespie.gillespie_run"], "count"),
            "gillespie.self_s": (self_s["gillespie"], "s"),
            "gillespie.events": (events, "count"),
            "gillespie.events_per_s": (ratio(events, self_s["gillespie"]), "1/s"),
            "gillespie.records": (sum(x["records"] for x in extra["gillespie.gillespie_run"]), "count"),
            "predictors.calls": (entries["predictors"], "count"),
            "predictors.self_s": (self_s["predictors"], "s"),
            "stats.calls": (entries["stats"], "count"),
            "stats.self_s": (self_s["stats"], "s"),
            "verify.checks": (sum(extra["verify.run_suite"]), "count"),
            "verify.self_s": (self_s["verify"], "s"),
            "laws.evals": (entries["laws"], "count"),
            "laws.self_s": (self_s["laws"], "s"),
            "laws.evals_per_s": (ratio(entries["laws"], laws_outer_s), "1/s"),
            "laws.unresolved": (unresolved, "count"),
            "qseries.calls": (entries["qseries"], "count"),
            "qseries.self_s": (self_s["qseries"], "s"),
            "lefttail.calls": (entries["lefttail"], "count"),
            "lefttail.self_s": (self_s["lefttail"], "s"),
        }

