import dataclasses
import errno
import hashlib
import itertools
import json
import math
import multiprocessing
import re
import subprocess
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from fragsim import brw, budget, experiment, plotdata, verify
from fragsim.brw import sweep_replicas
from fragsim.cli import TAILS_MAX_ABS_ERROR, build_parser, main
from fragsim.errors import DomainError, SpecError
from fragsim.experiment import (
    SCHEMA_VERSION,
    ExperimentSpec,
    read_config,
    read_rows,
    read_sidecar,
    run_experiment,
    sidecar_path,
    write_csv,
)
from fragsim.predictors import largest_depth_window
from fragsim.seeds import SeedSpec
from fragsim.stats import intensity_profile

INTENSITY_COLUMNS = ("s_lo", "s_hi", "mean_count", "expected_count")


class TestSpecValidation:
    def test_engine_horizon_pairing(self):
        ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=3)
        ExperimentSpec(k=2, alpha=1.0, engine="gillespie", t_end=10.0)
        with pytest.raises(SpecError):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", t_end=10.0)
        with pytest.raises(SpecError):
            ExperimentSpec(k=2, alpha=1.0, engine="gillespie", n_max=3)
        with pytest.raises(SpecError):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=3, t_end=1.0)
        with pytest.raises(SpecError):
            ExperimentSpec(k=2, alpha=1.0, engine="warp", n_max=3)

    def test_field_messages(self):
        with pytest.raises(SpecError, match="replicas"):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, replicas=0)
        with pytest.raises(SpecError, match="alpha"):
            ExperimentSpec(k=2, alpha=-1.0, engine="brw", n_max=1)

    @pytest.mark.parametrize("floor", [math.inf, -math.inf, math.nan, "0", False])
    def test_floor_must_be_finite(self, floor):
        with pytest.raises(SpecError, match="floor"):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=3, floor=floor)

    @pytest.mark.parametrize("field, value", [
        ("alpha", True), ("alpha", math.inf), ("alpha", math.nan),
        ("t_end", True), ("t_end", math.inf), ("t_end", math.nan), ("t_end", 0.0),
        pytest.param("t_end", 10**400, id="t_end-int-beyond-float"),
    ])
    def test_reals_refuse_bool_and_non_finite(self, field, value):
        fields = {"k": 2, "alpha": 1.0, "engine": "gillespie", "t_end": 10.0, field: value}
        with pytest.raises(SpecError, match=field):
            ExperimentSpec(**fields)

    def test_from_dict_refuses_bool_alpha(self, tmp_path):
        out = tmp_path / "g.csv"
        spec = ExperimentSpec(k=2, alpha=1.0, engine="gillespie", t_end=5.0, out=str(out))
        run_experiment(spec)
        meta = json.loads(sidecar_path(out).read_text())
        meta["spec"]["alpha"] = True
        with pytest.raises(SpecError, match="alpha must be a positive finite number, got True"):
            ExperimentSpec.from_dict(meta["spec"])

    def test_round_trip(self):
        spec = ExperimentSpec(
            k=3, alpha=0.5, engine="brw", n_max=4, replicas=2, master_seed=9
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(SpecError, match="unknown"):
            ExperimentSpec.from_dict({"k": 2, "alpha": 1.0, "engine": "brw", "n_max": 1, "bogus": 1})

    @pytest.mark.parametrize("data, field", [
        ({"alpha": 1.0, "engine": "brw", "n_max": 1}, "k"),
        ({"k": 2, "engine": "brw", "n_max": 1}, "alpha"),
        ({"k": 2, "alpha": "1.0", "engine": "brw", "n_max": 1}, "alpha"),
        ({"k": 2, "alpha": 1.0, "engine": "gillespie", "t_end": "9"}, "t_end"),
        ({"k": 2, "alpha": 1.0, "engine": "brw", "n_max": 1, "out": 3}, "out"),
    ])
    def test_from_dict_rejects_missing_and_ill_typed(self, data, field):
        with pytest.raises(SpecError, match=field):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("seed", [1.5, "3", -1, 1 << 64])
    def test_master_seed_must_be_an_integer(self, seed):
        with pytest.raises(SpecError, match="master_seed"):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, master_seed=seed)
        with pytest.raises(DomainError, match="master_seed"):
            SeedSpec(seed)


class TestConfig:
    def test_read_and_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nk = 2\nalpha = 1.0\nengine = brw\nn_max = 3\n"
            "replicas = 2\nmaster_seed = 5\n"
        )
        fields = read_config(cfg)
        assert fields == {
            "k": 2, "alpha": 1.0, "engine": "brw", "n_max": 3,
            "replicas": 2, "master_seed": 5,
        }

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nwidth = 3\n")
        with pytest.raises(SpecError, match="width"):
            read_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError):
            read_config(tmp_path / "nope.ini")

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nk = 2\nalpha = 1.0\nn_max = 2\nreplicas = 1\n")
        out = tmp_path / "a.csv"
        code = main([
            "simulate", "brw", "--config", str(cfg), "--n-max", "4",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out, experiment._COLUMNS["brw"])
        assert read_sidecar(out)["spec"]["n_max"] == 4
        assert {int(r[2]) for r in rows} == set(range(5))

    @pytest.mark.parametrize("text, what", [
        (b"[experiment]\nk = 2\nk = 3\n", "option 'k' in section 'experiment' already exists"),
        (b"k = 2\n", "File contains no section headers"),
        (b"[experiment]\nalpha = 1%\n", "config key 'alpha': could not convert string to float: '1%'"),
        (b"\xff[experiment]\n", "codec can't decode byte 0xff"),
    ], ids=["duplicate-key", "no-header", "percent", "not-utf8"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, what):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(text)
        out = tmp_path / "a.csv"
        argv = ["simulate", "brw", "--n-max", "2", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert what in capsys.readouterr().err

    def test_percent_in_config_value_is_raw(self, tmp_path):
        out = tmp_path / "run%1.csv"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nn_max = 2\nout = {out}\n")
        assert main(["simulate", "brw", "--config", str(cfg)]) == 0
        assert out.is_file()

    def test_config_types_name_the_spec_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert set(experiment._CONFIG_TYPES) == fields

    def test_one_simulate_flag_per_field(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {}
        for action in sub.choices["simulate"]._actions:
            flags.setdefault(action.dest, []).extend(action.option_strings)
        for key in ("k", "alpha", "replicas", "floor", "out"):
            assert flags.pop(key) == [f"--{key}"]
        assert flags.pop("n_max") == ["--n-max"] and flags.pop("t_end") == ["--t-end"]
        assert flags.pop("master_seed") == ["--seed"]
        assert flags == {"help": ["-h", "--help"], "engine": [], "config": ["--config"],
                         "jobs": ["--jobs"]}


class TestRunRecord:
    def test_single_root_row(self, tmp_path):
        out = tmp_path / "root.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=0, replicas=1,
            master_seed=42, out=str(out),
        )
        record = run_experiment(spec)
        assert len(list(record.rows)) == 1
        rows = read_rows(out, ("replica", "n", "k_min", "k_max", "tau"))
        draw = SeedSpec(42, 0).rng().standard_exponential(1)[0]
        assert float(rows[0][3]) == draw == float(rows[0][4]) == float(rows[0][5])

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "b.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=5, replicas=2,
            master_seed=7, out=str(out),
        )
        record = run_experiment(spec)
        rows = read_rows(out, experiment._COLUMNS["brw"])
        for row, original in zip(rows, list(record.rows), strict=True):
            assert float(row[3]) == original[2]
            assert float(row[5]) == original[4]

    def test_write_csv_matches_repr_join(self, tmp_path, monkeypatch):
        row = (0.1 + 0.2, 5e-324, 1e16, -0.0, math.inf, math.nan, 123456789012345678)
        columns = ("a", "b", "c", "d", "e", "f", "g")
        out = tmp_path / "t.csv"
        write_csv(out, columns, [row])
        assert out.read_text().split("\n")[1] == f"{SCHEMA_VERSION}," + ",".join(map(repr, row))
        # no rows, and counts that are and are not multiples of the batch
        monkeypatch.setattr(experiment, "_CSV_BATCH", 7)
        for count in (0, 1, 7, 15, 21):
            rows = [(i, i / 3, -i) for i in range(count)]
            write_csv(out, ("x", "y", "z"), iter(rows))
            assert out.read_text() == _joined_csv(("x", "y", "z"), rows)

    @pytest.mark.parametrize("fields", [
        {"engine": "brw", "n_max": 5, "replicas": 40},
        {"engine": "gillespie", "t_end": 30.0, "replicas": 3},
        {"engine": "spine", "n_max": 6, "replicas": 3},
    ], ids=lambda fields: fields["engine"])
    def test_record_csv_matches_joined_lines(self, tmp_path, monkeypatch, fields):
        # 40 brw replicas at n_max=5 are 240 rows, not a multiple of 100
        monkeypatch.setattr(experiment, "_CSV_BATCH", 100)
        out = tmp_path / "r.csv"
        record = run_experiment(ExperimentSpec(k=3, alpha=0.6, master_seed=8, out=str(out), **fields))
        rows = list(record.rows)
        assert len(rows) % 100
        columns = experiment._COLUMNS[fields["engine"]]
        assert out.read_text() == _joined_csv(columns, rows)
        # each access to rows starts over, and the count needs no pass
        assert list(record.rows) == rows
        assert record.row_count == len(rows) == out.read_text().count("\n") - 1
        # Python ints and floats, not numpy scalars: their str is the cell
        cells = {"brw": (int, int, float, float, float), "gillespie": (int, float, int, int),
                 "spine": (int, int, float)}[fields["engine"]]
        assert {(type(row), *map(type, row)) for row in rows} == {(tuple, *cells)}

    def test_csv_written_in_bounded_memory(self, tmp_path):
        # the whole-text format held the lines and their join, 3.9x the file
        rng = np.random.default_rng(0)
        values = rng.standard_normal((60_000, 3)).tolist()
        rows = [(i // 9, i % 9, *v) for i, v in enumerate(values)]
        out = tmp_path / "c.csv"
        peak = _traced_peak(lambda: write_csv(out, experiment._COLUMNS["brw"], rows))
        size = out.stat().st_size
        assert size > 3_000_000
        assert peak < 0.25 * size

    def test_git_describe_ignores_working_directory(self, tmp_path, monkeypatch):
        here = experiment._git_describe()
        monkeypatch.chdir(tmp_path)
        assert experiment._git_describe() == here

    def test_git_describe_reads_only_the_package_checkout(self, tmp_path, monkeypatch):
        # the checkout whose src/fragsim holds the package is described; a
        # copy that merely lies inside another repository is "unknown"
        repo = tmp_path / "repo"
        package = repo / "src" / "fragsim"
        copy = repo / "fake-site" / "lib" / "fragsim"
        for path in (package, copy):
            path.mkdir(parents=True)
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "one"], check=True)
        head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        monkeypatch.setattr(experiment, "__file__", str(package / "experiment.py"))
        assert experiment._git_describe() == head
        monkeypatch.setattr(experiment, "__file__", str(copy / "experiment.py"))
        assert experiment._git_describe() == "unknown"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_experiment(
                ExperimentSpec(
                    k=2, alpha=1.0, engine="gillespie", t_end=50.0,
                    replicas=3, master_seed=1, out=str(path),
                )
            )
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = dict(k=2, alpha=1.0, engine="brw", n_max=6, replicas=4, master_seed=3)
        run_experiment(ExperimentSpec(**spec, out=str(a)), jobs=1)
        run_experiment(ExperimentSpec(**spec, out=str(b)), jobs=4)
        assert a.read_bytes() == b.read_bytes()

    def test_pool_bytes_match_in_process(self, tmp_path, monkeypatch):
        # a budget of two n=6 replicas splits 5 replicas into 3 blocks
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = dict(k=2, alpha=1.0, engine="brw", n_max=6, replicas=5, master_seed=3)
        run_experiment(ExperimentSpec(**spec, out=str(a)), jobs=1)
        run_experiment(ExperimentSpec(**spec, out=str(b)), jobs=2)
        assert a.read_bytes() == b.read_bytes()
        # the head line, one line per replica, and the rest
        assert sidecar_path(a).read_text().count("\n") == 5 + 2

    @pytest.fixture
    def recorder(self, monkeypatch):
        """Stand in for ProcessPoolExecutor: record each pool's worker count
        and its tasks, each the list of slices it maps, start no process and
        map in this one."""
        pools, tasks = [], []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, slices, chunksize=1):
                slices = list(slices)
                tasks.append([slices[i : i + chunksize] for i in range(0, len(slices), chunksize)])
                return map(fn, slices)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Recorder)
        return pools, tasks

    def test_jobs_clamped_to_blocks_and_cpus(self, tmp_path, monkeypatch, recorder):
        pools = recorder[0]
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 64)
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2",
                     "--jobs", "5000", "--out", str(tmp_path / "b.csv")]) == 0
        assert pools == []  # one block: no pool at all
        gil = ExperimentSpec(k=2, alpha=1.0, engine="gillespie", t_end=20.0, replicas=3)
        assert list(run_experiment(gil, jobs=5000).rows) == list(run_experiment(gil).rows)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        run_experiment(gil, jobs=5000)
        assert pools == [3, 2]

    @pytest.mark.parametrize("engine, horizon, replicas", [
        ("spine", {"n_max": 8}, 7),
        ("gillespie", {"t_end": 20.0}, 7),
        ("brw", {"n_max": 6}, 7),
    ])
    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_pool_tasks_are_runs_of_whole_slices(
        self, monkeypatch, recorder, engine, horizon, replicas, jobs
    ):
        if engine == "brw":  # blocks of two n=6 replicas: four slices
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 3)
        spec = ExperimentSpec(k=2, alpha=1.0, engine=engine, replicas=replicas,
                              master_seed=5, **horizon)
        slices, workers = experiment._slices(spec, jobs)
        assert workers == min(jobs, len(slices), 3)
        rows = list(run_experiment(spec, jobs=jobs).rows)
        pools, [tasks] = recorder
        # contiguous runs of whole slices, one a process, at most one a worker
        assert [s for task in tasks for s in task] == slices
        assert [r for s in slices for r in s] == list(range(replicas))
        assert pools == [len(tasks)] and len(tasks) <= workers
        assert rows == list(run_experiment(spec, jobs=1).rows)
        block = 2 if engine == "brw" else 1
        assert max(sum(map(len, task)) for task in tasks) > block

    @pytest.mark.parametrize("engine, horizon", [
        ("spine", {"n_max": 8}), ("gillespie", {"t_end": 20.0}), ("brw", {"n_max": 6}),
    ])
    def test_jobs_keep_csv_and_sidecar_bytes(self, tmp_path, monkeypatch, engine, horizon):
        if engine == "brw":
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 3)
        bodies = set()
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}.csv"
            run_experiment(ExperimentSpec(k=2, alpha=1.0, engine=engine, replicas=12,
                                          master_seed=5, out=str(out), **horizon), jobs=jobs)
            meta = sidecar_path(out).read_text().replace(json.dumps(str(out)), '"OUT"')
            meta = re.sub(r'"wall_clock_s": [^,}]+', "", meta)
            bodies.add((out.read_bytes(), meta))
        assert len(bodies) == 1

    @pytest.mark.parametrize("engine, horizon", [
        ("spine", {"n_max": 8}), ("gillespie", {"t_end": 20.0}), ("brw", {"n_max": 6}),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unpersisted_run_has_the_rows_and_computes_no_points(
        self, tmp_path, monkeypatch, recorder, engine, horizon, jobs
    ):
        if engine == "brw":  # blocks of two n=6 replicas: three slices
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        wanted = []

        def recording(params, n_max, seeds, floor, point_generations):
            wanted.append(tuple(point_generations))
            return sweep_replicas(params, n_max, seeds, floor, point_generations)

        monkeypatch.setattr(experiment, "sweep_replicas", recording)
        out = tmp_path / "r.csv"
        spec = ExperimentSpec(k=2, alpha=1.0, engine=engine, replicas=5, master_seed=5,
                              **horizon)
        rows = list(run_experiment(spec, jobs=jobs).rows)
        assert not list(tmp_path.iterdir())
        persisted = run_experiment(dataclasses.replace(spec, out=str(out)), jobs=jobs)
        assert list(persisted.rows) == rows
        assert out.read_text() == _joined_csv(experiment._COLUMNS[engine], rows)
        assert wanted == ([()] * 3 + [(6,)] * 3 if engine == "brw" else [])
        assert recorder[0] == ([2, 2] if jobs == 2 else [])

    def test_one_worker_sweeps_a_slice_at_a_time(self, monkeypatch):
        calls = []

        def counted(params, n_max, seeds, *args):
            calls.append([seed.replica_index for seed in seeds])
            return sweep_replicas(params, n_max, seeds, *args)

        monkeypatch.setattr(experiment, "sweep_replicas", counted)
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=10, replicas=200)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 64)
        slices = [range(0, 85), range(85, 170), range(170, 200)]
        assert experiment._slices(spec, 64) == (slices, 3)  # three blocks
        run_experiment(spec, jobs=1)
        # a slice is one block: the last generation fits one chunk
        assert brw.sweep_plan(2, 10) == (85, 1, False)
        assert [len(c) for c in calls] == [85, 85, 30]
        assert [r for c in calls for r in c] == list(range(200))

    def test_threaded_sweep_starts_no_pool(self, monkeypatch, recorder):
        """A deep brw run spreads its blocks over the sweep's threads, which
        share one budget, in place of pool workers that would each hold one."""
        threads = []

        class Recorder(ThreadPoolExecutor):
            def __init__(self, max_workers):
                threads.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(brw, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(brw, "usable_cpus", lambda: 64)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 64)
        # one replica a block, 2**18 leaves spanning two chunks
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=18, replicas=3)
        assert brw.sweep_plan(2, 18) == (1, 64, True)
        assert experiment._slices(spec, 3) == ([range(3)], 1)  # one slice, one worker
        rows = run_experiment(spec, jobs=3).rows
        assert recorder[0] == [] and threads == [3]
        alone = list(run_experiment(dataclasses.replace(spec, replicas=1)).rows)
        assert [row for row in rows if row[0] == 0] == alone

    def test_usable_cpus_honours_affinity(self, monkeypatch):
        monkeypatch.setattr(budget.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(budget.os, "cpu_count", lambda: 64)
        assert budget.usable_cpus() == 3
        monkeypatch.delattr(budget.os, "sched_getaffinity")
        assert budget.usable_cpus() == 64
        monkeypatch.setattr(budget.os, "cpu_count", lambda: None)
        assert budget.usable_cpus() == 1

    def test_sidecar_contents(self, tmp_path):
        out = tmp_path / "c.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=3, replicas=1,
            master_seed=2, out=str(out),
        )
        run_experiment(spec)
        meta = json.loads(sidecar_path(out).read_text())
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["spec"]["engine"] == "brw"
        assert sorted(meta["extras"]) == ["points_final_generation", "unit_bin_counts"]

    def test_sidecar_points_encode_as_lists(self, tmp_path):
        out = tmp_path / "p.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=6, replicas=12, master_seed=3, out=str(out),
        )
        seeds = [SeedSpec(3, r) for r in range(12)]
        sweep = sweep_replicas(spec.params(), 6, seeds, spec.floor, (6,))
        points = {str(r): p.tolist() for r, p in enumerate(sweep.points[6])}
        run_experiment(spec)
        written = json.loads(sidecar_path(out).read_text())["extras"]["points_final_generation"]
        assert list(written) == [str(r) for r in range(12)]
        assert written == points
        entries = [json.dumps({r: points[r]})[1:-1] for r in points]
        encoded = _HEAD + ",\n".join(entries) + '\n}, "unit_bin_counts": {"0":['
        assert sidecar_path(out).read_text().startswith(encoded)

    @pytest.mark.parametrize("fields, budget", [
        ({"k": 3, "engine": "brw", "n_max": 5, "replicas": 40}, None),
        ({"k": 3, "engine": "brw", "n_max": 4, "replicas": 3, "floor": -1e300}, None),
        # blocks of two n=6 replicas: 12 replicas are 6 slices, and replica
        # order is not sorted-key order past 10
        ({"k": 2, "engine": "brw", "n_max": 6, "replicas": 12}, 2 * 8 * (2**6 + 2**5)),
        ({"k": 3, "engine": "gillespie", "t_end": 30.0, "replicas": 2}, None),
        ({"k": 3, "engine": "spine", "n_max": 6, "replicas": 2}, None),
    ], ids=["brw", "brw-low-floor", "brw-slices", "gillespie", "spine"])
    def test_sidecar_bytes_match_json_dumps(self, tmp_path, monkeypatch, fields, budget):
        if budget:
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(budget))
            assert brw.sweep_plan(2, 6) == (2, 1, False)
        monkeypatch.setattr(experiment, "_git_describe", lambda: "v1.0-3-gabcdef")
        monkeypatch.setattr(experiment, "time", SimpleNamespace(monotonic=lambda: 1.25))
        out = tmp_path / "r.csv"
        spec = ExperimentSpec(alpha=0.6, master_seed=8, out=str(out), **fields)
        run_experiment(spec)
        # sorted keys, but the points and their counts in replica order
        sidecar = {
            "extras": {},
            "git_describe": "v1.0-3-gabcdef",
            "schema_version": SCHEMA_VERSION,
            "spec": dict(sorted(spec.to_dict().items())),
            "wall_clock_s": 0.0,
        }
        by_line = spec.engine == "brw"
        if by_line:  # the points of one sweep over every seed
            seeds = [SeedSpec(spec.master_seed, r) for r in range(spec.replicas)]
            sweep = sweep_replicas(spec.params(), spec.n_max, seeds, spec.floor, (spec.n_max,))
            points = {str(r): p.tolist() for r, p in enumerate(sweep.points[spec.n_max])}
            sidecar["extras"] = {"points_final_generation": points,
                                 "unit_bin_counts": _counts_of(points)}
        text = sidecar_path(out).read_text()
        # a brw sidecar has a line per replica, and its counts on one line
        # with compact separators
        assert text == (_line_layout(sidecar) if by_line else json.dumps(sidecar) + "\n")
        assert json.loads(text) == sidecar
        assert text.startswith(_HEAD) == by_line
        assert sorted(tmp_path.iterdir()) == [out, sidecar_path(out)]

    def test_streamed_run_in_bounded_memory(self, tmp_path, monkeypatch):
        # a budget of one n=10 replica a block makes each slice one replica
        # of 1024 points at floor -1e300: 8 kB of the 1.2 MB of points; a
        # run that held them all peaked 1.5 MB above its rows
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(8 * (2**10 + 2**9)))
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=10, replicas=150,
                              master_seed=5, floor=-1e300, out=str(tmp_path / "m.csv"))
        assert brw.sweep_plan(2, 10) == (1, 1, False)
        tracemalloc.start()
        try:
            record = run_experiment(spec)
            held, peak = tracemalloc.get_traced_memory()  # held: the rows' columns
        finally:
            tracemalloc.stop()
        assert record.row_count == 150 * 11
        assert peak - held < 450_000

    def test_held_rows_in_bounded_memory(self):
        # 40 bytes of numbers a row; rows held as tuples of Python ints and
        # floats took 145 bytes each, and 185 at 4,000 replicas
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=8, replicas=1000,
                              master_seed=5)
        run_experiment(dataclasses.replace(spec, replicas=1))  # one-time imports and caches
        tracemalloc.start()
        try:
            record = run_experiment(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert record.row_count == 1000 * 9
        assert held < 64 * record.row_count

    @pytest.mark.parametrize("where", ["second-slice", "second-csv-batch", "sidecar-tail"])
    def test_run_that_raises_leaves_out_as_it_was(self, tmp_path, monkeypatch, where):
        out = tmp_path / "r.csv"
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=6, replicas=12,
                              master_seed=3, out=str(out))
        run_experiment(dataclasses.replace(spec, master_seed=4))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        # blocks of two n=6 replicas: six slices
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        full = OSError(errno.ENOSPC, "No space left on device")
        calls = []

        def temporaries() -> int:
            return len(list(tmp_path.glob("*.tmp")))

        if where == "second-slice":
            # the raise comes once the first slice's points are in the
            # temporary sidecar, before any CSV line is written
            def failing(*args):
                calls.append(len(args[2]))
                if len(calls) == 2:
                    assert temporaries() == 1
                    raise full
                return sweep_replicas(*args)

            monkeypatch.setattr(experiment, "sweep_replicas", failing)
        elif where == "second-csv-batch":
            # 84 rows in batches of 32: the raise comes after the first batch
            monkeypatch.setattr(experiment, "_CSV_BATCH", 32)

            def failing(rows, count):
                calls.append(count)
                if len(calls) == 2:
                    assert temporaries() == 2
                    raise full
                return itertools.islice(rows, count)

            monkeypatch.setattr(experiment, "islice", failing)
        else:
            # the sidecar's file fills up halfway through its tail
            class Full:
                def __init__(self, file):
                    self.file = file

                def write(self, text):
                    if text.startswith("\n}, "):
                        calls.append(temporaries())
                        self.file.write(text[: len(text) // 2])
                        raise full
                    return self.file.write(text)

                def close(self):
                    self.file.close()

            opened = experiment._Sidecar.__init__

            def init(sidecar, csv_path):
                opened(sidecar, csv_path)
                sidecar.file = Full(sidecar.file)

            monkeypatch.setattr(experiment._Sidecar, "__init__", init)
        with pytest.raises(OSError) as raised:
            run_experiment(spec)
        assert raised.value is full
        assert calls == {"second-slice": [2, 2], "second-csv-batch": [32, 32],
                         "sidecar-tail": [2]}[where]
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the failing engine reaches pool workers only through fork")
    @pytest.mark.parametrize("engine, horizon", [
        ("brw", {"n_max": 6}), ("gillespie", {"t_end": 20.0}),
    ])
    def test_pool_run_that_raises_leaves_out_as_it_was(
        self, tmp_path, monkeypatch, engine, horizon
    ):
        out = tmp_path / "r.csv"
        spec = ExperimentSpec(k=2, alpha=1.0, engine=engine, replicas=12, master_seed=3,
                              out=str(out), **horizon)
        run_experiment(dataclasses.replace(spec, master_seed=4))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        if engine == "brw":  # blocks of two n=6 replicas: six slices
            monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        name = "sweep_replicas" if engine == "brw" else "gillespie_run"
        engine_run = getattr(experiment, name)

        def failing(params, horizon, seeds, *args):
            # a brw slice's engine call takes a seed list, gillespie's one seed
            indices = [seed.replica_index for seed in (seeds if engine == "brw" else [seeds])]
            if max(indices) >= 6:
                raise OSError(errno.ENOSPC, "No space left on device")
            return engine_run(params, horizon, seeds, *args)

        monkeypatch.setattr(experiment, name, failing)
        with pytest.raises(OSError) as raised:
            run_experiment(spec, jobs=2)
        # re-pickled from a pool worker, so compared by errno, not identity
        assert raised.value.errno == errno.ENOSPC
        assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
        assert not list(tmp_path.glob("*.tmp"))
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_spine_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        run_experiment(
            ExperimentSpec(
                k=2, alpha=1.0, engine="spine", n_max=4, replicas=1,
                master_seed=1, out=str(out),
            )
        )
        rows = read_rows(out, ("replica", "i", "split_time"))
        times = [float(r[3]) for r in rows]
        assert times == sorted(times)
        assert len(rows) == 5


def _traced_peak(call) -> int:
    """The peak of traced Python memory while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _joined_csv(columns, rows) -> str:
    """A CSV as a whole-text writer spells it: every line, joined."""
    lines = ["schema_version," + ",".join(columns)]
    lines += [f"{SCHEMA_VERSION}," + ",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# edits of a brw sidecar's points (floor -5.0), whose counts are then
# recounted: a replica with none, points below the floor, non-finite
# points, and ints
_POINT_EDITS = {
    "replica-without-points": lambda points: points.update({"1": []}),
    "points-below-floor": lambda points: points["2"].extend([-7.5, -12.0, -5.000001]),
    "non-finite-points": lambda points: points["0"].extend([math.inf, -math.inf, math.nan]),
    "int-points": lambda points: points.update({"3": [-6, -4, 0, 2, 4, 5, 7]}),
}
# brw runs: k=3, alpha=0.6 at the default floor, at k=2, alpha=1, at a floor
# below every point, with no point above the floor, in slices of two
# replicas, and from two workers
_RUNS = {
    "brw": {},
    "brw-k2": {"k": 2, "alpha": 1.0, "n_max": 6, "replicas": 12},
    "brw-low-floor": {"floor": -1000.0},
    "brw-high-floor": {"floor": 2.0},
    "brw-no-points": {"floor": 1e9},
    "brw-slices": {"k": 2, "alpha": 1.0, "n_max": 6, "replicas": 12},
    "brw-jobs-2": {"k": 2, "alpha": 1.0, "n_max": 6, "replicas": 12},
}
# sidecars of each engine, of those runs, and brw ones rewritten in other
# valid layouts: two replicas on a line, a replica over two lines, whole
# JSON, and ones without points or counts, written before the counts were
_SIDECAR_LAYOUTS = (*_RUNS, "empty-points", "gillespie", "spine", "two-per-line",
                    "split-replica", "indent-2", "floor-infinity", "empty-extras",
                    "no-counts", *_POINT_EDITS)


# the first line of a brw sidecar with points
_HEAD = experiment._POINTS_HEAD + "\n"

# edits of a sidecar at one of its lines, given that line and the lines
# after it: the file cut before or after the line's newline or in its
# middle, the line dropped, or the line joined to the next
_LINE_EDITS = {
    "cut-before-newline": lambda line, rest: line.rstrip("\n"),
    "cut-after-newline": lambda line, rest: line,
    "cut-mid-line": lambda line, rest: line[:len(line) // 2],
    "dropped": lambda line, rest: rest,
    "joined": lambda line, rest: line.rstrip("\n") + " " + rest,
}


def _counts_of(points: dict) -> dict:
    """The unit_bin_counts a run writes for ``points``, by replica."""
    out = {}
    for r, values in points.items():
        first, counts = experiment._unit_bin_counts(np.asarray(values, dtype=float))
        out[r] = [first, counts.tolist()]
    return out


def _line_layout(data: dict) -> str:
    """A brw sidecar's data laid out as write_record lays it out: the
    _HEAD line, one line per replica in the order of ``data``, which is
    replica order in data read from a written sidecar, and then the counts,
    if any, with compact separators and the rest."""
    extras = data["extras"]
    points = extras["points_final_generation"]
    rest = json.dumps({key: data[key] for key in data if key != "extras"}, sort_keys=True)
    entries = [json.dumps({r: points[r]})[1:-1] for r in points]
    counts = ""
    if "unit_bin_counts" in extras:
        counts = ', "unit_bin_counts": ' + json.dumps(extras["unit_bin_counts"], separators=(",", ":"))
    return _HEAD + ",\n".join(entries) + "\n}" + counts + "}, " + rest[1:] + "\n"


def _sidecar_in_layout(tmp_path, monkeypatch, layout):
    engine = layout if layout in ("gillespie", "spine") else "brw"
    horizon = {"t_end": 30.0} if engine == "gillespie" else {"n_max": 4}
    fields = {"k": 3, "alpha": 0.6, "replicas": 5, **horizon, **_RUNS.get(layout, {})}
    out = tmp_path / "r.csv"
    with monkeypatch.context() as patched:
        if layout in ("brw-slices", "brw-jobs-2"):  # blocks of two n=6 replicas
            patched.setenv("FRAGSIM_BUDGET_BYTES", str(2 * 8 * (2**6 + 2**5)))
            patched.setattr(experiment, "usable_cpus", lambda: 2)
        run_experiment(ExperimentSpec(engine=engine, master_seed=8, out=str(out), **fields),
                       jobs=2 if layout == "brw-jobs-2" else 1)
    meta = sidecar_path(out)
    text = meta.read_text()
    if layout == "indent-2":
        text = json.dumps(json.loads(text), indent=2)
    elif layout == "floor-infinity":
        text = text.replace('"floor": -5.0', '"floor": Infinity')
        assert "Infinity" in text
    elif layout == "empty-extras":
        text = json.dumps({**json.loads(text), "extras": {}}, sort_keys=True)
    elif layout == "empty-points":
        extras = {"points_final_generation": {}, "unit_bin_counts": {}}
        text = json.dumps({**json.loads(text), "extras": extras}, sort_keys=True)
    elif layout == "no-counts":
        data = json.loads(text)
        del data["extras"]["unit_bin_counts"]
        text = _line_layout(data)
    elif layout == "two-per-line":
        text = text.replace('],\n"1": ', '], "1": ')
    elif layout == "split-replica":
        text = re.sub(r'\n("2": \[[^,\]]*), ', r'\n\1,\n', text, count=1)
    elif layout in _POINT_EDITS:
        data = json.loads(text)
        points = data["extras"]["points_final_generation"]
        _POINT_EDITS[layout](points)
        data["extras"]["unit_bin_counts"] = _counts_of(points)
        text = _line_layout(data)
    unchanged = (*_RUNS, "gillespie", "spine")
    assert (text == meta.read_text()) == (layout in unchanged)
    meta.write_text(text)
    return out


def _loaded_intensity_table(out) -> str:
    """The intensity table from fully loaded points: json.loads of the
    sidecar, intensity_profile over unit bins, every line joined."""
    meta = json.loads(sidecar_path(out).read_text())
    spec = ExperimentSpec.from_dict(meta["spec"])
    points = meta["extras"].get("points_final_generation", {})
    edges = np.arange(math.floor(spec.floor), 6.0)
    reports = intensity_profile(
        [points[r] for r in sorted(points, key=int)],
        list(zip(edges[:-1], edges[1:])),
        spec.params().q,
    ) if points else []
    rows = [(float(r.interval[0]), float(r.interval[1]), r.mean_count, r.expected)
            for r in reports]
    return _joined_csv(("s_lo", "s_hi", "mean_count", "expected_count"), rows)


def _without_points(meta):
    """``meta`` as read_sidecar returns it: no points in its extras."""
    if isinstance(meta.get("extras"), dict):
        meta["extras"].pop("points_final_generation", None)
    return meta


class TestReadSidecar:
    @pytest.mark.parametrize("layout", _SIDECAR_LAYOUTS)
    def test_reads_as_json_loads(self, tmp_path, monkeypatch, layout):
        # reprs, so that NaN values would compare equal
        out = _sidecar_in_layout(tmp_path, monkeypatch, layout)
        loaded = _without_points(json.loads(sidecar_path(out).read_text()))
        assert repr(read_sidecar(out)) == repr(loaded)

    @pytest.mark.parametrize("layout", _SIDECAR_LAYOUTS)
    def test_streamed_intensity_matches_loaded_points(self, tmp_path, monkeypatch, layout):
        # the table read from the counts is the one recounted from the
        # points; a sidecar without counts, or refused for intensity, exits 2
        out = _sidecar_in_layout(tmp_path, monkeypatch, layout)
        table = tmp_path / "i.csv"
        refused = {"gillespie": "needs a 'brw' record", "spine": "needs a 'brw' record",
                   "floor-infinity": "floor must be a finite number",
                   "empty-extras": "no unit_bin_counts", "no-counts": "no unit_bin_counts"}
        if layout in refused:
            with pytest.raises(SpecError, match=refused[layout]):
                plotdata.emit_plotdata(out, "intensity", table)
            return
        extras = json.loads(sidecar_path(out).read_text())["extras"]
        points, counts = extras["points_final_generation"], extras["unit_bin_counts"]
        assert list(counts) == list(points)
        assert counts == _counts_of(points)
        plotdata.emit_plotdata(out, "intensity", table)
        assert table.read_text() == _loaded_intensity_table(out)

    @pytest.mark.parametrize("read", ["read_sidecar", "plotdata"])
    @pytest.mark.parametrize("edit", _LINE_EDITS)
    @pytest.mark.parametrize("line", range(7))
    def test_each_line_edit_reads_as_json_loads(self, tmp_path, line, edit, read):
        # the line layout of 5 replicas is the head, 5 entries and the tail;
        # each line cut short, dropped or joined to the next reads as
        # json.loads reads it: the same value, or json's own error; an edit
        # that json.loads reads leaves the counts, and so the table, as run
        out = tmp_path / "e.csv"
        run_experiment(ExperimentSpec(
            k=3, alpha=0.6, engine="brw", n_max=4, replicas=5, master_seed=8, out=str(out),
        ))
        whole, table = tmp_path / "whole.csv", tmp_path / "i.csv"
        plotdata.emit_plotdata(out, "intensity", whole)
        lines = sidecar_path(out).read_text().splitlines(keepends=True)
        assert len(lines) == 7 and lines[0] == _HEAD
        counts = json.loads("".join(lines))["extras"]["unit_bin_counts"]
        text = "".join(lines[:line]) + _LINE_EDITS[edit](lines[line], "".join(lines[line + 1:]))
        sidecar_path(out).write_text(text)
        if read == "read_sidecar":
            call = partial(read_sidecar, out)
        else:
            call = partial(plotdata.emit_plotdata, out, "intensity", table)
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            what = f"e.csv.meta.json: {exc.msg} at line {exc.lineno} column {exc.colno}"
            with pytest.raises(SpecError, match=re.escape(what)):
                call()
            return
        if read == "read_sidecar":
            assert repr(call()) == repr(_without_points(loaded))
        else:
            assert loaded["extras"]["unit_bin_counts"] == counts
            assert call() == 10 and table.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("points", [
        '"0": [0.5],\n"1": [[1.0], [2.0]],\n"2": [1.5]',
        '"0": [0.5],\n"1": "a,b",\n"2": {"c": [1.5]},\n"3": [2.5]',
    ], ids=["nested-list", "string-and-object"])
    def test_points_that_are_no_list_read_as_json_loads(self, tmp_path, points):
        out = tmp_path / "n.csv"
        out.write_text("")
        text = _HEAD + points + '\n}}, "spec": {"out": "x"}}\n'
        sidecar_path(out).write_text(text)
        assert read_sidecar(out) == _without_points(json.loads(text)) == {
            "extras": {}, "spec": {"out": "x"},
        }

    @pytest.mark.parametrize("entries", [
        '"0": [0.5 x],\n"1": [1.5],\n"2": [2.5]',
        '"0": [0.5],\n"0": [1.5],\n"2": [2.5],\n"3": [3.5]',
        '"0": [0.5],\n"1": [1.5],\n"0": [2.5]',
        '"0": [0.5], "0": [1.5],\n"1": [2.5],\n"2": [3.5]',
    ], ids=["not-json", "two-lines", "line-and-rest", "one-line"])
    def test_stepped_over_lines_are_checked_for_shape_only(self, tmp_path, entries):
        # a replica's line followed by another is not decoded, so neither a
        # value json.loads refuses nor a replica that comes twice is seen
        # there; no points are returned either way
        out = tmp_path / "s.csv"
        out.write_text("")
        sidecar_path(out).write_text(_HEAD + entries + '\n}}, "spec": {"out": "x"}}\n')
        assert read_sidecar(out) == {"extras": {}, "spec": {"out": "x"}}

    @pytest.mark.parametrize("text, what", [
        ('{"spec": {"k": 2}', "Expecting ',' delimiter at line 1 column 18"),
        ('{"spec": [1.0, 2.', "Expecting ',' delimiter at line 1 column 17"),
        ('{"spec" {}}', "Expecting ':' delimiter at line 1 column 9"),
        ('{"a": 1,}', "Expecting property name enclosed in double quotes at line 1 column 9"),
        ('{\n  "a": 1\n  "b": 2\n}', "Expecting ',' delimiter at line 3 column 3"),
        ("[]", "not a JSON object"),
        ("", "Expecting value at line 1 column 1"),
        ('{"a": 1} {}', "Extra data at line 1 column 10"),
        # the line layout write_record writes: a cut in an entry, no comma
        # between entries, a comma before the close, a file that ends after
        # the head line or after an entry, no colon, and a bare comma
        (_HEAD + '"0": [0.5],\n"1": [0.5, 1.2', "Expecting ',' delimiter at line 3 column 15"),
        (_HEAD + '"0": [0.5]\n"1": [1.5]\n}}}\n', "Expecting ',' delimiter at line 3 column 1"),
        (_HEAD + '"0": [0.5],\n"1": [1.5],\n}}}\n',
         "Expecting property name enclosed in double quotes at line 4 column 1"),
        (_HEAD, "Expecting property name enclosed in double quotes at line 2 column 1"),
        (_HEAD + '"0": [0.5],\n',
         "Expecting property name enclosed in double quotes at line 3 column 1"),
        (_HEAD + '"0": [0.5],\n"1": [1.5]\n', "Expecting ',' delimiter at line 4 column 1"),
        (_HEAD + '"0": [0.5],\n"1" [1.5],\n"2": [2.5]\n}}}\n',
         "Expecting ':' delimiter at line 3 column 5"),
        (_HEAD + '"0": [0.5],\n,\n"2": [2.5]\n}}}\n',
         "Expecting property name enclosed in double quotes at line 3 column 1"),
    ])
    def test_malformed_raises_spec_error(self, tmp_path, text, what):
        out = tmp_path / "m.csv"
        out.write_text("")
        sidecar_path(out).write_text(text)
        with pytest.raises(SpecError, match=re.escape(f"m.csv.meta.json: {what}")):
            read_sidecar(out)
        # json's own message, at json's own line and column
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            assert what == f"{exc.msg} at line {exc.lineno} column {exc.colno}"
        else:
            assert what == "not a JSON object"


    @pytest.mark.parametrize("text, key", [
        # the rest of the file repeats extras after three replicas
        (_HEAD + '"0": [0.5],\n"1": [1.5],\n"2": [2.5]\n'
         '}}, "extras": {"points_final_generation": {"9": [9.5]}}}\n', "extras"),
        # a replica's counts twice
        (_HEAD + '"0": [0.5],\n"1": [1.5]\n'
         '}, "unit_bin_counts": {"0":[0,[1]],"1":[1,[1]],"0":[0,[1]]}}}\n', "0"),
        ('{"spec": {"k": 2, "k": 3}}', "k"),
    ], ids=["extras", "counts", "whole-file"])
    def test_duplicated_key_raises_spec_error(self, tmp_path, text, key):
        # json.loads would keep the last value of the key
        out = tmp_path / "d.csv"
        out.write_text("")
        sidecar_path(out).write_text(text)
        json.loads(text)
        with pytest.raises(SpecError, match=re.escape(f"d.csv.meta.json: duplicated key {key!r}")):
            read_sidecar(out)


class TestCliSurface:
    def test_tails_table(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = main([
            "tails", "--q", "0.5", "--n", "1", "--t-grid", "1:1:1",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out, ("q", "n", "t", "survival", "abs_error"))
        expected = 2 * math.exp(-1) - math.exp(-2)
        assert float(rows[0][4]) == pytest.approx(expected, abs=1e-14)

    def test_tails_resolved_grid_exits_0(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = main([
            "tails", "--q", "0.5", "--n", "40", "--t-grid", "0:20:0.02",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out, experiment.TAILS_COLUMNS)
        assert len(rows) == 1001
        assert max(float(r[5]) for r in rows) <= TAILS_MAX_ABS_ERROR

    def test_tails_refuses_unresolved_rows(self, tmp_path, capsys):
        # the alternating series cancels catastrophically at q=0.99, n=200
        out = tmp_path / "tails.csv"
        code = main([
            "tails", "--q", "0.99", "--n", "200", "--t-grid", "0:2:1",
            "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "t=1.0" in err and "no file written" in err

    def test_tails_underflowed_denominator_exits_2(self, tmp_path, capsys):
        # (q;q)_j (q;q)_(n-j) is 0.0 for some j at q=0.999, n=2000
        out = tmp_path / "tails.csv"
        argv = ["tails", "--q", "0.999", "--n", "2000", "--t-grid", "1:2:0.5", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "underflows at q=0.999, n=2000" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, capsys):
        for grid in ("oops", "0:nan:1", "0:inf:1", "0:1:0", "2:1:1"):
            assert main(["tails", "--q", "0.5", "--n", "1", "--t-grid", grid, "--out", "x.csv"]) == 2

    def test_tails_grid_charged_to_budget(self, tmp_path, monkeypatch, capsys):
        # 10,001 rows fit any real budget; 1000 bytes must refuse them unbuilt
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000")
        out = tmp_path / "tails.csv"
        argv = ["tails", "--q", "0.5", "--n", "1", "--t-grid", "0:10:0.001", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "exceeding the budget of 1000 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "brw", "--n-max", "3"],
        ["simulate", "gillespie", "--t-end", "20", "--replicas", "2", "--jobs", "2"],
        ["tails", "--q", "0.5", "--n", "1", "--t-grid", "1:1:1"],
    ], ids=["simulate", "simulate-pool-worker", "tails"])
    def test_bad_budget_variable_exits_2(self, tmp_path, monkeypatch, capsys, argv, value):
        # the variable is named with its value, not reported as a budget of
        # 0 bytes overflowed, and comes back whole from a pool worker
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", value)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        assert main([*argv, "--out", str(tmp_path / "r.csv")]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert f"FRAGSIM_BUDGET_BYTES must be a positive integer number of bytes, got {value!r}" in err
        assert "exceeding" not in err

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "bogus"]) == 2

    @pytest.mark.parametrize("suite, seed", [
        ("leftail", str(1 << 64)), ("tails", "-1"), ("all", "-5"), ("extremes", str(1 << 70)),
    ])
    def test_verify_seed_out_of_range_exits_2(self, capsys, suite, seed):
        # the seed is checked before any suite runs, tails and leftail
        # included, though they draw nothing
        assert main(["verify", "--suite", suite, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"master_seed must be an integer in [0, {1 << 64}), got {seed}" in captured.err

    def test_spine_charged_to_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000")
        out = tmp_path / "s.csv"
        argv = ["simulate", "spine", "--n-max", "100000", "--replicas", "1", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "spine sample n=100000 requires 3200032 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("engine, horizon, what", [
        ("gillespie", ["--t-end", "100"], "gillespie run to t=100.0 requires"),
        ("spine", ["--n-max", "100000"], "spine sample n=100000 requires 3200032 bytes"),
    ])
    def test_budget_refused_in_pool_worker_exits_2(
        self, tmp_path, monkeypatch, capsys, engine, horizon, what
    ):
        # a BudgetError raised in a worker is pickled back to this process;
        # one that cannot be rebuilt broke the pool, a traceback and exit 1
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "1000")
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        out = tmp_path / "r.csv"
        argv = ["simulate", engine, *horizon, "--replicas", "4", "--jobs", "2", "--out", str(out)]
        assert main(argv) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert what in err and "exceeding the budget of 1000 bytes" in err

    def test_spine_past_float_range_exits_2(self, tmp_path, capsys):
        # q^-n overflows a float from n = 1024 at q = 1/2; at the parent this
        # wrote rows of inf with a numpy warning and exit 0
        out = tmp_path / "s.csv"
        argv = ["simulate", "spine", "--n-max", "1100", "--replicas", "1", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "n must be at most 1023 at q=0.5" in capsys.readouterr().err

    def test_verify_tails_passes(self, capsys):
        assert main(["verify", "--suite", "tails"]) == 0
        captured = capsys.readouterr()
        assert "[PASS]" in captured.out
        assert "FAIL" not in captured.out

    def test_verify_all_report_is_pinned(self, capsys):
        # Seed-42 report of every suite. A change that alters a check
        # re-records this digest and says why.
        assert main(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out.encode()
        assert out.count(b"[PASS]") == 21 and len(out) == 1617
        assert hashlib.sha256(out).hexdigest() == (
            "2a85e19dd9334961abcc88feb3a18d80b1926fd16d7fd654d938c5355ddbd4a9"
        )

    def test_verify_failed_check_exits_1(self, monkeypatch, capsys):
        failing = lambda seed: [verify.CheckResult("off bound", 2.0, hi=1.0)]
        monkeypatch.setitem(verify._SUITE_FUNCS, "tails", failing)
        assert main(["verify", "--suite", "tails"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] off bound: observed 2, expected <= 1" in out
        assert "0/1 checks passed" in out

    def test_verify_all_runs_coverage_first_and_reports_in_suite_order(self, monkeypatch):
        # coverage's deep sweep runs before the other suites grow the heap
        calls = []

        def stub(suite):
            def run(seed):
                calls.append(suite)
                return [verify.CheckResult(f"{suite} {i}", float(seed)) for i in range(2)]
            return run

        order = list(verify._SUITE_FUNCS)
        for suite in order:
            monkeypatch.setitem(verify._SUITE_FUNCS, suite, stub(suite))
        checks = verify.run_suite("all", 7)
        assert calls == ["coverage", *(s for s in order if s != "coverage")]
        assert [c.name for c in checks] == [f"{s} {i}" for s in order for i in range(2)]
        assert {c.observed for c in checks} == {7.0}


    def test_plotdata_kind_engine_mismatch(self, tmp_path):
        out = tmp_path / "g.csv"
        main([
            "simulate", "gillespie", "--k", "2", "--alpha", "1", "--t-end", "20",
            "--replicas", "1", "--seed", "1", "--out", str(out),
        ])
        assert main(["plotdata", "--in", str(out), "--kind", "intensity", "--out", str(tmp_path / "i.csv")]) == 2
        assert main(["plotdata", "--in", str(out), "--kind", "staircase", "--out", str(tmp_path / "s.csv")]) == 0

    def test_plotdata_window_columns(self, tmp_path):
        out = tmp_path / "g.csv"
        main([
            "simulate", "gillespie", "--k", "2", "--alpha", "1", "--t-end", "200",
            "--replicas", "1", "--seed", "4", "--out", str(out),
        ])
        win = tmp_path / "w.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "windows", "--out", str(win)]) == 0
        rows = read_rows(win, ("replica", "t", "m_t", "lo_int", "hi_int"))
        assert rows, "expected probe rows"
        for r in rows:
            assert int(r[4]) <= int(r[5])

    def test_plotdata_windows_computed_once_per_probe(self, tmp_path, monkeypatch):
        out = tmp_path / "g.csv"
        main([
            "simulate", "gillespie", "--k", "2", "--alpha", "1", "--t-end", "200",
            "--replicas", "3", "--seed", "4", "--out", str(out),
        ])
        probes = []

        def counted(params, t):
            probes.append(t)
            return largest_depth_window(params, t)

        monkeypatch.setattr(plotdata, "largest_depth_window", counted)
        rows = plotdata.emit_plotdata(out, "windows", tmp_path / "w.csv")
        assert len(probes) == len(set(probes)) and rows == 3 * len(probes)

    def test_plotdata_empty_record_header_only(self, tmp_path):
        csv = tmp_path / "empty.csv"
        write_csv(csv, ("replica", "event_time", "m_t", "M_t"), [])
        sidecar_path(csv).write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "spec": {"engine": "gillespie", "k": 2, "alpha": 1.0, "t_end": 10.0},
            "extras": {},
        }))
        out = tmp_path / "stairs.csv"
        assert main(["plotdata", "--in", str(csv), "--kind", "staircase", "--out", str(out)]) == 0
        assert out.read_text().strip() == "schema_version,replica,t,value"

    @pytest.mark.parametrize("floor", ["inf", "nan"])
    def test_non_finite_floor_exits_2(self, tmp_path, capsys, floor):
        out = tmp_path / "b.csv"
        argv = ["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                "--out", str(out)]
        assert main(argv + ["--floor", floor]) == 2
        config = tmp_path / "run.ini"
        config.write_text(f"[experiment]\nfloor = {floor}\n")
        assert main(argv + ["--config", str(config)]) == 2
        assert not out.exists()
        assert "floor must be a finite number" in capsys.readouterr().err

    def test_config_non_finite_t_end_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[experiment]\nt_end = inf\n")
        out = tmp_path / "g.csv"
        assert main(["simulate", "gillespie", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "t_end must be a positive finite number, got inf" in capsys.readouterr().err

    def test_plotdata_non_finite_sidecar_floor_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        meta.write_text(meta.read_text().replace('"floor": -5.0', '"floor": Infinity'))
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(tmp_path / "i.csv")]) == 2
        assert "floor must be a finite number, got inf" in capsys.readouterr().err

    def test_plotdata_intensity_reads_only_the_sidecar(self, tmp_path, monkeypatch):
        out = tmp_path / "b.csv"
        run_experiment(ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=5, replicas=30, master_seed=6, out=str(out),
        ))
        table = tmp_path / "i.csv"
        expected = plotdata.emit_plotdata(out, "intensity", table)
        body = table.read_bytes()

        def refuse(path, columns):
            raise AssertionError("intensity parsed the CSV rows")

        monkeypatch.setattr(plotdata, "read_rows", refuse)
        assert plotdata.emit_plotdata(out, "intensity", table) == expected > 0
        assert table.read_bytes() == body

    def test_plotdata_intensity_decodes_no_point(self, tmp_path, monkeypatch):
        # one json.loads call, of the head line, the last two replicas' lines
        # (the held one and the one that stopped the stepping) and the tail
        # with the counts; every other replica's line is stepped over
        out = tmp_path / "b.csv"
        run_experiment(ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=5, replicas=30, master_seed=6, out=str(out),
        ))
        lines = sidecar_path(out).read_text().splitlines(keepends=True)
        assert len(lines) == 32
        decoded = []
        loads = json.loads

        def counted(text, **kwargs):
            decoded.append(len(text))
            return loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        assert plotdata.emit_plotdata(out, "intensity", tmp_path / "i.csv") == 10
        assert decoded == [len(lines[0]) + len("".join(lines[-3:]))]

    def test_plotdata_intensity_in_bounded_memory(self, tmp_path):
        # loading the points whole held them as float64 arrays, and the
        # 1 MiB read chunk cost as much again
        out = tmp_path / "big.csv"
        spec = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=8, out=str(out))
        write_csv(out, experiment._COLUMNS["brw"], [])
        rng = np.random.default_rng(0)
        points = {str(r): rng.standard_exponential(256).tolist() for r in range(2000)}
        sidecar_path(out).write_text(_line_layout({
            "extras": {"points_final_generation": points, "unit_bin_counts": _counts_of(points)},
            "git_describe": "v",
            "schema_version": SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "wall_clock_s": 0.0,
        }))
        table = tmp_path / "i.csv"
        peak = _traced_peak(lambda: plotdata.emit_plotdata(out, "intensity", table))
        float_bytes = 8 * 256 * 2000
        assert sidecar_path(out).stat().st_size > 9_000_000
        assert len(read_rows(table, INTENSITY_COLUMNS)) == 10
        assert peak < 0.35 * float_bytes

    def test_plotdata_intensity_at_huge_negative_floor_exits_2(self, tmp_path, capsys):
        # 1e18 bins: charged, refused, never allocated
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                     "--floor=-1e18", "--out", str(out)]) == 0
        table = tmp_path / "i.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(table)]) == 2
        assert not table.exists()
        assert "intensity bins from floor -1e+18 x 2 replicas requires" in capsys.readouterr().err

    def test_simulate_stray_low_point_exits_2(self, tmp_path, monkeypatch, capsys):
        # one replica's bin counts run down to its lowest point: charged
        # before the run writes them, and the run leaves no file
        def stray(*args):
            sweep = sweep_replicas(*args)
            sweep.points[3][1] = np.append(sweep.points[3][1], -1e300)
            return sweep

        monkeypatch.setattr(experiment, "sweep_replicas", stray)
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert not list(tmp_path.iterdir())
        assert "intensity bins from a point at -1e+300 requires" in capsys.readouterr().err

    def test_plotdata_intensity_starts_at_the_first_whole_bin(self, tmp_path):
        # at floor -4.5 the bin [-5, -4) would hold only the points in
        # [-4.5, -4) against the whole bin's expected count: the table
        # starts at -4, and its rows are those of the table at floor -5
        tables = {}
        for floor in ("-5", "-4.5"):
            out = tmp_path / f"b{floor}.csv"
            table = tmp_path / f"i{floor}.csv"
            assert main(["simulate", "brw", "--n-max", "8", "--replicas", "200", "--seed", "42",
                         f"--floor={floor}", "--out", str(out)]) == 0
            assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                         "--out", str(table)]) == 0
            tables[floor] = table.read_text().splitlines()
        whole, cut = tables["-5"], tables["-4.5"]
        assert whole[1].startswith("1,-5.0,-4.0,") and cut[1].startswith("1,-4.0,-3.0,")
        assert cut == whole[:1] + whole[2:]

    def test_plotdata_intensity_bins_charged_to_budget(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                     "--floor=-100", "--out", str(out)]) == 0
        table = tmp_path / "i.csv"
        argv = ["plotdata", "--in", str(out), "--kind", "intensity", "--out", str(table)]
        # 105 bins of 300 bytes and two counts each need 33,180 bytes
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "33179")
        assert main(argv) == 2
        assert not table.exists()
        assert "requires 33180 bytes, exceeding the budget of 33179 bytes" in capsys.readouterr().err
        monkeypatch.setenv("FRAGSIM_BUDGET_BYTES", "33180")
        assert main(argv) == 0
        assert len(read_rows(table, INTENSITY_COLUMNS)) == 105

    @pytest.mark.parametrize("kind", ["staircase", "windows"])
    def test_plotdata_empty_csv_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "g.csv"
        assert main(["simulate", "gillespie", "--t-end", "20", "--out", str(out)]) == 0
        out.write_text("")
        assert main(["plotdata", "--in", str(out), "--kind", kind,
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert f"record {out} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["staircase", "windows"])
    @pytest.mark.parametrize("fault, where", [
        ("brw rows", "line 1: header 'schema_version,replica,n,k_min,k_max,tau'"),
        ("schema_version 2", "line 2: expected 5 cells with schema_version 1, got '2,0,0.0,0,0'"),
        ("late first row", "replica 1 starts at t = "),
        ("bad cell", "line 2: could not convert string to float: 'x'"),
        # a replica's rows are one run in event-time order, as written
        ("times go down", "line 5: replica 0 goes back in time to t = 3.071809616207692"),
        ("replica split", "line 21: replica 0 resumes after another replica's rows"),
    ])
    def test_plotdata_malformed_record_exits_2(self, tmp_path, capsys, kind, fault, where):
        out = tmp_path / "g.csv"
        assert main(["simulate", "gillespie", "--t-end", "20", "--replicas", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        if fault == "brw rows":
            brw = tmp_path / "b.csv"
            assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2",
                         "--out", str(brw)]) == 0
            lines = brw.read_text().splitlines(keepends=True)
        elif fault == "schema_version 2":
            lines[1:] = ["2" + line[1:] for line in lines[1:]]
        elif fault == "late first row":
            first = lines.index("1,1,0.0,0,0\n")
            del lines[first]
            where = f"line {first + 1}: " + where
        elif fault == "times go down":
            lines[3], lines[4] = lines[4], lines[3]
        elif fault == "replica split":
            lines.append(lines.pop(4))
        else:
            lines[1] = "1,0,x,0,0\n"
        out.write_text("".join(lines))
        assert main(["plotdata", "--in", str(out), "--kind", kind,
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert f"record {out} {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["staircase", "windows"])
    def test_plotdata_equal_event_times_are_a_staircase(self, tmp_path, kind):
        out = tmp_path / "g.csv"
        assert main(["simulate", "gillespie", "--t-end", "20", "--replicas", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        lines.insert(4, lines[4])
        out.write_text("".join(lines))
        assert main(["plotdata", "--in", str(out), "--kind", kind,
                     "--out", str(tmp_path / "p.csv")]) == 0

    def test_plotdata_truncated_sidecar_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "5", "--replicas", "10",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        text = meta.read_text()
        meta.write_text(text[: len(text) // 2])
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(tmp_path / "i.csv")]) == 2
        assert f"malformed sidecar {meta}: " in capsys.readouterr().err

    @pytest.mark.parametrize("read", ["streamed", "whole"])
    @pytest.mark.parametrize("counts, what", [
        (None, "no unit_bin_counts object; re-run the simulation to write them"),
        ([[-5, [1]]], "no unit_bin_counts object"),
        ({"0": [-5, [1]], "x": [-5, [1]]}, "replica 'x' is not an integer"),
        ({"0": [-5, [1]], "1": "abc"}, "replica 1: bin counts are not [first, [count, ...]]"),
        ({"0": [-5, [1]], "1": [-5]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5.0, [1]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5, [1.0]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5, [True]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5, [[1]]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5, [-1]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [-5, [2**63]]}, "replica 1: bin counts are not"),
        ({"0": [-5, [1]], "1": [4, [1, 1]]}, "replica 1: bin counts are not"),
    ], ids=["no-counts", "counts-list", "key-x", "string", "short", "float-first",
            "float-count", "bool", "nested-list", "negative", "past-int64", "past-top"])
    def test_plotdata_malformed_counts_exit_2(self, tmp_path, capsys, read, counts, what):
        # a sidecar written before the counts, as well as ill-formed ones
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        data = json.loads(meta.read_text())
        data["extras"]["unit_bin_counts"] = counts
        if counts is None:
            del data["extras"]["unit_bin_counts"]
        if read == "streamed":
            text = _line_layout(data)
        else:
            text = json.dumps(data, sort_keys=True, indent=2)
        meta.write_text(text)
        table = tmp_path / "i.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(table)]) == 2
        assert not table.exists()
        assert f"malformed sidecar {meta}: {what}" in capsys.readouterr().err

    def test_plotdata_repeated_extras_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        text = meta.read_text()
        assert text.count('}}, "git_describe"') == 1
        extra = '"extras": {"points_final_generation": {"9": [9.5]}}, '
        meta.write_text(text.replace('}}, "git_describe"', '}}, ' + extra + '"git_describe"'))
        table = tmp_path / "i.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(table)]) == 2
        assert not table.exists()
        assert f"malformed sidecar {meta}: duplicated key 'extras'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, what", [
        ("spec", "spec must be a JSON object, got 5"),
        ("extras", "its extras are not a JSON object"),
    ])
    def test_plotdata_spec_or_extras_not_an_object_exits_2(self, tmp_path, capsys, key, what):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        data = json.loads(meta.read_text())
        data[key] = 5
        meta.write_text(json.dumps(data, sort_keys=True))
        table = tmp_path / "i.csv"
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(table)]) == 2
        assert not table.exists()
        assert f"malformed sidecar {meta}: {what}" in capsys.readouterr().err

    def test_plotdata_intensity_below_exp_range(self, tmp_path, capsys):
        # e^1000 overflows a float: the lowest bins expect inf points, and
        # the bins of the default floor read as they do there
        low, default = tmp_path / "low.csv", tmp_path / "default.csv"
        argv = ["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1"]
        assert main(argv + ["--floor=-1000", "--out", str(low)]) == 0
        assert main(argv + ["--out", str(default)]) == 0
        tables = []
        for record in (low, default):
            tables.append(tmp_path / f"i-{record.name}")
            assert main(["plotdata", "--in", str(record), "--kind", "intensity",
                         "--out", str(tables[-1])]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows, default_rows = (read_rows(table, INTENSITY_COLUMNS) for table in tables)
        assert len(rows) == 1005
        for _, lo, _, _, expected in rows:
            # (e^-lo - e^-(lo + 1)) / phi_inf(1/2) is more than a float holds
            # for lo < -708, and less above
            assert math.isinf(float(expected)) == (float(lo) < -708)
        assert rows[-len(default_rows):] == default_rows

    @pytest.mark.parametrize("missing", ["csv", "sidecar"])
    @pytest.mark.parametrize("kind", plotdata.KINDS)
    def test_plotdata_missing_csv_exits_2(self, tmp_path, capsys, kind, missing):
        # the other file stays, so only the missing one can refuse the run
        out = tmp_path / "r.csv"
        horizon = ["--n-max", "3"] if kind == "intensity" else ["--t-end", "20"]
        engine = "brw" if kind == "intensity" else "gillespie"
        assert main(["simulate", engine, *horizon, "--out", str(out)]) == 0
        gone = out if missing == "csv" else sidecar_path(out)
        gone.unlink()
        assert main(["plotdata", "--in", str(out), "--kind", kind,
                     "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert f"I/O error: [Errno 2] No such file or directory: '{gone}'" in err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCheckResult:
    def test_passed_includes_its_bounds(self):
        inside = lambda x, lo=-math.inf, hi=math.inf: verify.CheckResult("c", x, lo, hi).passed
        assert inside(0.7, 0.7, 1.3) and inside(1.3, 0.7, 1.3)
        assert not inside(math.nextafter(0.7, 0.0), 0.7, 1.3)
        assert not inside(math.nextafter(1.3, 2.0), 0.7, 1.3)
        assert inside(1e-6, hi=1e-6) and not inside(math.nextafter(1e-6, 1.0), hi=1e-6)
        assert inside(0.85, lo=0.85) and not inside(math.nextafter(0.85, 0.0), lo=0.85)

    @pytest.mark.parametrize("check, text", [
        (verify.CheckResult("c", 0.0, hi=1e-6), "<= 1e-6"),
        (verify.CheckResult("c", 0.0, lo=0.85), ">= 0.85"),
        (verify.CheckResult.near("c", 0.0, 1.0, 1e-8), "1 +- 1e-8"),
        (verify.CheckResult.near("c", 0.0, 0.786842105263, 0.05), "0.786842105 +- 0.05"),
        (verify.CheckResult.near("c", 0.0, 3.4627466, 0.1, relative=True), "3.4627466 +- 10%"),
        (verify.CheckResult("c", 0.0, 0.7, 1.3), "1 +- 0.3"),
    ])
    def test_expected_prints_the_bound_as_written(self, check, text):
        assert check.expected == text
