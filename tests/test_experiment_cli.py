import json
import math

import pytest

from fragsim import experiment
from fragsim.cli import TAILS_MAX_ABS_ERROR, main
from fragsim.errors import DomainError, SpecError
from fragsim.experiment import (
    SCHEMA_VERSION,
    ExperimentSpec,
    format_csv,
    read_config,
    read_record_files,
    run_experiment,
    sidecar_path,
)
from fragsim.seeds import SeedSpec


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

    @pytest.mark.parametrize("floor", [math.inf, -math.inf, math.nan, "0"])
    def test_floor_must_be_finite(self, floor):
        with pytest.raises(SpecError, match="floor"):
            ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=3, floor=floor)

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
        header, rows, meta = read_record_files(out)
        assert meta["spec"]["n_max"] == 4
        assert {int(r[2]) for r in rows} == set(range(5))


class TestRunRecord:
    def test_single_root_row(self, tmp_path):
        out = tmp_path / "root.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=0, replicas=1,
            master_seed=42, out=str(out),
        )
        record = run_experiment(spec)
        assert len(record.rows) == 1
        header, rows, meta = read_record_files(out)
        assert header == ["schema_version", "replica", "n", "k_min", "k_max", "tau"]
        draw = SeedSpec(42, 0).rng().standard_exponential(1)[0]
        assert float(rows[0][3]) == draw == float(rows[0][4]) == float(rows[0][5])

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "b.csv"
        spec = ExperimentSpec(
            k=2, alpha=1.0, engine="brw", n_max=5, replicas=2,
            master_seed=7, out=str(out),
        )
        record = run_experiment(spec)
        _, rows, _ = read_record_files(out)
        for row, original in zip(rows, record.rows):
            assert float(row[3]) == original[2]
            assert float(row[5]) == original[4]

    def test_format_csv_matches_repr_join(self):
        row = (0.1 + 0.2, 5e-324, 1e16, -0.0, math.inf, math.nan, 123456789012345678)
        body = format_csv(("a", "b", "c", "d", "e", "f", "g"), [row])
        assert body.split("\n")[1] == f"{SCHEMA_VERSION}," + ",".join(map(repr, row))

    def test_git_describe_ignores_working_directory(self, tmp_path, monkeypatch):
        here = experiment._git_describe()
        monkeypatch.chdir(tmp_path)
        assert experiment._git_describe() == here

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
        assert sidecar_path(a).read_text().count("\n") == 1

    def test_jobs_clamped_to_blocks_and_cpus(self, tmp_path, monkeypatch):
        pools = []

        class Recorder:
            """Stands in for ProcessPoolExecutor: records the worker count,
            starts no process and maps in this one."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 64)
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2",
                     "--jobs", "5000", "--out", str(tmp_path / "b.csv")]) == 0
        assert pools == []  # one block: no pool at all
        gil = ExperimentSpec(k=2, alpha=1.0, engine="gillespie", t_end=20.0, replicas=3)
        assert run_experiment(gil, jobs=5000).rows == run_experiment(gil).rows
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        run_experiment(gil, jobs=5000)
        assert pools == [3, 2]

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
        assert "points_final_generation" in meta["extras"]

    def test_spine_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        run_experiment(
            ExperimentSpec(
                k=2, alpha=1.0, engine="spine", n_max=4, replicas=1,
                master_seed=1, out=str(out),
            )
        )
        header, rows, _ = read_record_files(out)
        assert header == ["schema_version", "replica", "i", "split_time"]
        times = [float(r[3]) for r in rows]
        assert times == sorted(times)
        assert len(rows) == 5


class TestCliSurface:
    def test_tails_table(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = main([
            "tails", "--q", "0.5", "--n", "1", "--t-grid", "1:1:1",
            "--out", str(out),
        ])
        assert code == 0
        header, rows, _ = read_record_files(out)
        assert header == ["schema_version", "q", "n", "t", "survival", "abs_error"]
        expected = 2 * math.exp(-1) - math.exp(-2)
        assert float(rows[0][4]) == pytest.approx(expected, abs=1e-14)

    def test_tails_resolved_grid_exits_0(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = main([
            "tails", "--q", "0.5", "--n", "40", "--t-grid", "0:20:0.02",
            "--out", str(out),
        ])
        assert code == 0
        _, rows, _ = read_record_files(out)
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

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_verify_tails_passes(self, capsys):
        assert main(["verify", "--suite", "tails"]) == 0
        captured = capsys.readouterr()
        assert "[PASS]" in captured.out
        assert "FAIL" not in captured.out

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
        header, rows, _ = read_record_files(win)
        assert header == ["schema_version", "replica", "t", "m_t", "lo_int", "hi_int"]
        assert rows, "expected probe rows"
        for r in rows:
            assert int(r[4]) <= int(r[5])

    def test_plotdata_empty_record_header_only(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text(format_csv(("replica", "event_time", "m_t", "M_t"), []))
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

    def test_plotdata_non_finite_sidecar_floor_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["simulate", "brw", "--n-max", "3", "--replicas", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        meta = sidecar_path(out)
        meta.write_text(meta.read_text().replace('"floor": -5.0', '"floor": Infinity'))
        assert main(["plotdata", "--in", str(out), "--kind", "intensity",
                     "--out", str(tmp_path / "i.csv")]) == 2
        assert "floor must be a finite number, got inf" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
