import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from optlab import bench, verify
from optlab.cli import main
from optlab.config import load_config_file
from optlab.harness import run
from optlab.runio import write_run_artifacts

MINIMAL = """\
problem.kind = quadratic
problem.dim = 20
problem.condition = 10.0
optimizer.name = adamw
optimizer.lr = 0.03
schedule.family = constant
run.steps = 100
run.seed = 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    return path


def _single_run_dir(out: Path) -> Path:
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def _run_bytes(run_dir: Path) -> tuple[str, dict]:
    """A run directory's ``record.csv`` without ``step_time_ns`` and ``summary.json`` without ``mean_step_time_ns``."""
    csv = [line.rsplit(",", 1)[0] for line in (run_dir / "record.csv").read_text().splitlines()]
    summary = json.loads((run_dir / "summary.json").read_text())
    del summary["mean_step_time_ns"]
    return "\n".join(csv), summary


class TestRun:
    def test_minimal_config_writes_artifacts(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        run_dir = _single_run_dir(out)
        lines = (run_dir / "record.csv").read_text().splitlines()
        assert lines[0].startswith("step,loss,grad_norm")
        assert len(lines) == 101  # header + 100 rows
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["diverged"] is False
        assert "final_loss" in capsys.readouterr().out

    def test_unknown_optimizer_exit_2_lists_names(self, cfg_file, tmp_path, capsys):
        code = main(
            ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--set", "optimizer.name=sgd"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "adamw" in err and "prodigy" in err

    def test_set_override_wins_and_is_recorded(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_file), "--out", str(out), "--set", "optimizer.lr=2e-3"])
        summary = json.loads((_single_run_dir(out) / "summary.json").read_text())
        assert summary["config"]["optimizer.lr"] == 2e-3

    @pytest.mark.parametrize("name,key", [("soap", "precond_freq"), ("sophia", "estimator_freq")])
    def test_zero_refresh_period_exit_2(self, cfg_file, tmp_path, capsys, name, key):
        code = main(
            ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
             "--set", f"optimizer.name={name}", "--set", "problem.kind=mlp", "--set", f"optimizer.{key}=0"]
        )
        assert code == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,setting,message",
        [
            ("muon", "ns_a=nan", "ns_a must be finite, got nan"),
            ("dmuon", "ns_b=inf", "ns_b must be finite, got inf"),
            ("mars-shampoo", "ns_c=-inf", "ns_c must be finite, got -inf"),
            ("dmuon", "rms_factor=inf", "rms_factor must be finite, got inf"),
            ("sophia", "rho=inf", "rho must be finite, got inf"),
        ],
        ids=["muon-ns-a", "dmuon-ns-b", "mars-shampoo-ns-c", "dmuon-rms-factor", "sophia-rho"],
    )
    def test_non_finite_rule_value_exit_2_not_diverged(self, cfg_file, tmp_path, capsys, name, setting, message):
        code = main(
            ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--set", f"optimizer.name={name}",
             "--set", "problem.kind=mlp", "--set", "problem.samples=64", "--set", f"optimizer.{setting}"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "DIVERGED" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "settings,needs",
        [
            (["optimizer.lr=fast"], "'lr' needs a number"),
            (["optimizer.lr=none"], "'lr' needs a number"),
            (["optimizer.eps=none"], "'eps' needs a number"),
            (["optimizer.name=muon", "optimizer.ns_iters=2.5"], "'ns_iters' needs a whole number"),
        ],
    )
    def test_value_of_wrong_kind_exit_2_names_key(self, cfg_file, tmp_path, capsys, settings, needs):
        args = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 2
        assert f"hyperparameter {needs}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting,needs",
        [
            ("run.log_every=fast", "'run.log_every' needs a whole number"),
            ("run.clip=fast", "'run.clip' needs a number or none"),
            ("problem.dim=fast", "'problem.dim' needs a whole number"),
            ("run.steps=2.5", "'run.steps' needs a whole number"),
        ],
    )
    def test_non_optimizer_value_of_wrong_kind_exit_2_names_key(self, cfg_file, tmp_path, capsys, setting, needs):
        args = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--set", setting]
        assert main(args) == 2
        assert f"config key {needs}, got" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_log_every_below_one_exit_2(self, cfg_file, tmp_path, capsys, value):
        args = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--set", f"run.log_every={value}"]
        assert main(args) == 2
        assert f"run.log_every must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("run.clip=nan", "clip threshold must be positive, got nan"),
            ("problem.noise=nan", "noise_scale must be finite and >= 0, got nan"),
            ("problem.condition=nan", "condition must be finite and >= 1, got nan"),
            ("optimizer.lr=inf", "gamma_max must be positive and finite, got inf"),
        ],
        ids=["clip", "noise", "condition", "lr"],
    )
    def test_nan_setting_exit_2_names_value(self, cfg_file, tmp_path, capsys, setting, message):
        args = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--set", setting]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wsd_warmup_past_the_cooldown_start_exit_2(self, cfg_file, tmp_path, capsys):
        args = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        for setting in ("schedule.family=wsd", "schedule.wsd_cooldown_fraction=0.5", "schedule.warmup_steps=80"):
            args += ["--set", setting]
        assert main(args) == 2
        assert "wsd warmup_steps (80) must not exceed the cooldown start" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_library_run_with_preset_matches_cli(self, tmp_path):
        settings = {
            "problem.kind": "quadratic",
            "optimizer.name": "lion",
            "optimizer.preset": "124m-small",
            "run.steps": 20,
            "schedule.warmup_steps": 5,
        }
        out = tmp_path / "cli"
        args = ["run", "--out", str(out)]
        for key, value in settings.items():
            args += ["--set", f"{key}={value}"]
        assert main(args) == 0
        cli_dir = _single_run_dir(out)
        lib_dir = write_run_artifacts(run(settings), tmp_path / "lib")

        def digest(path: Path) -> str:
            rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
            return hashlib.sha256("\n".join(rows).encode()).hexdigest()

        assert digest(lib_dir / "record.csv") == digest(cli_dir / "record.csv")
        lib_config = json.loads((lib_dir / "summary.json").read_text())["config"]
        cli_config = json.loads((cli_dir / "summary.json").read_text())["config"]
        assert lib_config == cli_config
        assert cli_config["optimizer.lr"] == 0.0001  # from the preset

    def test_parse_error_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.steps = 10\nnot a setting\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_rerun_from_summary_reproduces_csv(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_file), "--out", str(out1)])
        dir1 = _single_run_dir(out1)
        main(["run", "--config", str(dir1 / "summary.json"), "--out", str(out2)])
        dir2 = _single_run_dir(out2)

        def strip_time(path: Path) -> list[str]:
            rows = path.read_text().splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert strip_time(dir1 / "record.csv") == strip_time(dir2 / "record.csv")

    @pytest.mark.parametrize("config", ["5", '["a"]', '"text"', "null"], ids=["int", "list", "str", "null"])
    def test_summary_whose_config_is_not_an_object_exit_2(self, tmp_path, capsys, config):
        summary = tmp_path / "summary.json"
        summary.write_text(f'{{"config": {config}}}')
        assert main(["run", "--config", str(summary), "--out", str(tmp_path / "o")]) == 2
        assert f"{summary}: JSON file has no 'config' object" in capsys.readouterr().err

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--out", str(out),
                "--set", "optimizer.name=adamw",
                "--set", "optimizer.preset=124m-large",
                "--set", "run.steps=20",
                "--set", "schedule.warmup_steps=5",
                "--set", "problem.kind=quadratic",
            ]
        )
        assert code == 0
        summary = json.loads((_single_run_dir(out) / "summary.json").read_text())
        assert summary["config"]["optimizer.lr"] == 0.001  # from the preset
        assert summary["config"]["schedule.warmup_steps"] == 5  # override wins


class TestPlotdata:
    @pytest.fixture()
    def run_dir(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_file), "--out", str(out)])
        return _single_run_dir(out)

    def test_lr_kind_hits_schedule_endpoints(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_file), "--out", str(out),
              "--set", "schedule.family=cosine", "--set", "schedule.warmup_steps=10"])
        run_dir = _single_run_dir(out)
        assert main(["plotdata", str(run_dir), "--kind", "lr"]) == 0
        rows = (run_dir / "plot_lr.csv").read_text().splitlines()[1:]
        values = {int(s): float(v) for s, v in (r.split(",") for r in rows)}
        assert values[10] == 0.03
        assert values[100] == pytest.approx(0.03 * 0.01, abs=1e-12)

    def test_gradnorm_passthrough(self, run_dir):
        main(["plotdata", str(run_dir), "--kind", "gradnorm"])
        plot = (run_dir / "plot_gradnorm.csv").read_text().splitlines()[1:]
        record = (run_dir / "record.csv").read_text().splitlines()[1:]
        grad_col = [r.split(",")[2] for r in record]
        assert [p.split(",")[1] for p in plot] == grad_col

    def test_window_one_is_identity(self, run_dir):
        main(["plotdata", str(run_dir), "--kind", "loss", "--set", "plot.window=1"])
        main(["plotdata", str(run_dir), "--kind", "loss", "--out", str(run_dir / "w5.csv"),
              "--set", "plot.window=5"])
        raw = (run_dir / "plot_loss.csv").read_text().splitlines()[1:]
        smooth = (run_dir / "w5.csv").read_text().splitlines()[1:]
        assert len(raw) == len(smooth)
        assert raw != smooth

    @pytest.mark.parametrize(
        "setting,error",
        [
            ("plot.window=abc", "plotdata key 'plot.window' needs a whole number, got 'abc'"),
            ("plot.window=2.5", "plotdata key 'plot.window' needs a whole number, got 2.5"),
            ("plot.window=true", "plotdata key 'plot.window' needs a whole number, got True"),
            ("plot.windw=5", "plotdata: unknown keys: plot.windw"),
        ],
        ids=["abc", "2.5", "true", "unknown"],
    )
    def test_bad_setting_exit_2(self, run_dir, capsys, setting, error):
        assert main(["plotdata", str(run_dir), "--kind", "loss", "--set", setting]) == 2
        assert error in capsys.readouterr().err
        assert not (run_dir / "plot_loss.csv").exists()

    @pytest.mark.parametrize("cut", [1, -1], ids=["one-field", "one-extra"])
    def test_row_with_wrong_field_count_exit_2_names_line(self, run_dir, capsys, cut):
        record = run_dir / "record.csv"
        lines = record.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:cut]) if cut > 0 else lines[3] + ",extra"
        record.write_text("\n".join(lines) + "\n")
        assert main(["plotdata", str(run_dir), "--kind", "loss"]) == 2
        fields, header = len(lines[3].split(",")), len(lines[0].split(","))
        assert f"{record} line 4: {fields} fields, header has {header}" in capsys.readouterr().err
        assert not (run_dir / "plot_loss.csv").exists()

    @pytest.mark.parametrize("window", [1, 5])
    def test_non_numeric_value_exit_2(self, run_dir, capsys, window):
        record = run_dir / "record.csv"
        lines = record.read_text().splitlines()
        row = lines[3].split(",")
        row[1] = "abc"  # the loss column
        lines[3] = ",".join(row)
        record.write_text("\n".join(lines) + "\n")
        assert main(["plotdata", str(run_dir), "--kind", "loss", "--set", f"plot.window={window}"]) == 2
        assert f"{record}: column 'loss': could not convert string to float: 'abc'" in capsys.readouterr().err
        assert not (run_dir / "plot_loss.csv").exists()

    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("step", ["x", "1.5", "+3", ""], ids=["x", "1.5", "+3", "empty"])
    def test_step_not_a_whole_number_exit_2_names_line(self, run_dir, capsys, window, step):
        record = run_dir / "record.csv"
        lines = record.read_text().splitlines()
        row = lines[2].split(",")
        row[0] = step  # the step column
        lines[2] = ",".join(row)
        record.write_text("\n".join(lines) + "\n")
        assert main(["plotdata", str(run_dir), "--kind", "loss", "--set", f"plot.window={window}"]) == 2
        assert f"{record} line 3: step must be a whole number, got {step!r}" in capsys.readouterr().err
        assert not (run_dir / "plot_loss.csv").exists()

    def test_missing_column_warns_and_exits_zero(self, run_dir, capsys):
        assert main(["plotdata", str(run_dir), "--kind", "d"]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert (run_dir / "plot_d.csv").read_text() == "step,value\n"


class TestBench:
    def test_small_suite_ranks_and_artifacts(self, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.name = mini\n"
            "suite.optimizers = adamw, signum\n"
            "suite.budgets = 30, 60\n"
            "suite.seeds = 2\n"
            "problem.kind = quadratic\n"
            "problem.dim = 10\n"
            "schedule.family = constant\n"
            "adamw.optimizer.lr = 0.03\n"
            "signum.optimizer.lr = 0.01\n"
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(suite), "--out", str(out)]) == 0
        bench_dir = next(out.glob("bench-mini-*"))
        report = (bench_dir / "report.csv").read_text().splitlines()
        assert report[0] == "optimizer,budget,rank,mean_final_loss,diverged,seeds"
        assert len(report) == 5  # 2 optimizers x 2 budgets
        doc = json.loads((bench_dir / "report.json").read_text())
        for budget in (30, 60):
            ranks = sorted(r["rank"] for r in doc["rows"] if r["budget"] == budget)
            assert ranks == [1, 2]
        assert len(list((bench_dir / "runs").iterdir())) == 8

    def test_diverged_cell_ranked_last_and_flagged(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.optimizers = adamw, signum\n"
            "suite.budgets = 40\n"
            "suite.seeds = 1\n"
            "problem.kind = quadratic\n"
            "schedule.family = constant\n"
            "adamw.optimizer.lr = 0.03\n"
            "signum.optimizer.lr = 1e5\n"  # blows up immediately
        )
        out = tmp_path / "out"
        main(["bench", "--config", str(suite), "--out", str(out)])
        doc = json.loads(next(out.glob("bench-*")) .joinpath("report.json").read_text())
        rows = {r["optimizer"]: r for r in doc["rows"]}
        assert rows["signum"]["diverged"] is True
        assert rows["signum"]["rank"] == 2
        assert rows["adamw"]["rank"] == 1

    def test_report_rows_agree_with_their_cells(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.optimizers = signum, lion, adamw\n"
            "suite.budgets = 20, 40\n"
            "suite.seeds = 2\n"
            "problem.kind = quadratic\n"
            "problem.noise = 1.0\n"
            "schedule.family = constant\n"
            "adamw.optimizer.lr = 0.03\n"
            "lion.optimizer.lr = 0.003\n"
            "signum.optimizer.lr = 1e5\n"  # diverges in every cell
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(suite), "--out", str(out)]) == 0
        bench_dir = next(out.glob("bench-*"))
        doc = json.loads((bench_dir / "report.json").read_text())
        assert len(doc["rows"]) == 6
        for row in doc["rows"]:
            runs = [bench_dir / "runs" / f"{row['optimizer']}-b{row['budget']}-r{rep}" for rep in range(2)]
            cells = [json.loads((run_dir / "summary.json").read_text()) for run_dir in runs]
            assert row["final_losses"] == [cell["final_loss"] for cell in cells]
            assert row["diverged"] == any(cell["diverged"] for cell in cells)
            clean = [loss for loss in row["final_losses"] if loss is not None]
            assert row["mean_final_loss"] == (sum(clean) / len(clean) if clean else None)
        csv_rows = [line.split(",") for line in (bench_dir / "report.csv").read_text().splitlines()[1:]]
        for budget in (20, 40):
            rows = [r for r in doc["rows"] if r["budget"] == budget]
            rows.sort(key=lambda r: (r["diverged"], math.inf if r["mean_final_loss"] is None else r["mean_final_loss"],
                                     r["optimizer"]))
            assert [r["rank"] for r in rows] == [1, 2, 3]
            assert rows[-1]["optimizer"] == "signum" and rows[-1]["diverged"]
            assert [r[0] for r in csv_rows if r[1] == str(budget)] == [r["optimizer"] for r in rows]

    def test_single_cell_rank_one(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.optimizers = adamw\nsuite.budgets = 20\nsuite.seeds = 1\n"
            "problem.kind = quadratic\nschedule.family = constant\nadamw.optimizer.lr = 0.03\n"
        )
        out = tmp_path / "out"
        main(["bench", "--config", str(suite), "--out", str(out)])
        doc = json.loads(next(out.glob("bench-*")).joinpath("report.json").read_text())
        assert doc["rows"][0]["rank"] == 1


class TestVerifyAndPresets:
    def test_presets_listing(self, capsys):
        assert main(["presets", "adamw"]) == 0
        out = capsys.readouterr().out
        assert "[adamw / 124m-small]" in out
        assert "optimizer.lr = 0.0005" in out

    def test_presets_unknown_optimizer(self, capsys):
        assert main(["presets", "sgd"]) == 2

    def test_verify_names_failing_invariant(self, monkeypatch, capsys):
        # fault injection: a mutated adamw epsilon must be caught and named
        from optlab.optimizers import base

        real = base.adamw_step

        def tampered(block, grad, state, hyper, beta1=0.9, beta2=0.999):
            bad = type(hyper)(hyper.gamma, hyper.lam, hyper.eps * 10.0)
            return real(block, grad, state, bad, beta1, beta2)

        monkeypatch.setattr(base, "adamw_step", tampered)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  scalar-oracle/adamw" in out

    def test_verify_passes_pristine(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        check_lines = out.splitlines()[:-1]
        assert len(check_lines) == len(verify.ALL_CHECKS)
        assert all(re.match(r"PASS  \S+ +\d+\.\d{3} s(  |$)", line) for line in check_lines)

    def test_check_results_time_each_check_in_order(self, monkeypatch):
        checks = [lambda: verify.CheckResult("first", True, ""), lambda: verify.CheckResult("second", False, "why")]
        monkeypatch.setattr(verify, "ALL_CHECKS", checks)
        results = verify.run_all_checks()
        assert [(r.name, r.passed, r.detail) for r in results] == [("first", True, ""), ("second", False, "why")]
        assert all(r.seconds >= 0.0 for r in results)
        assert verify.CheckResult("bare", True, "").seconds is None


class TestOutputRootAndJobs:
    def test_optlab_out_env_is_default_root(self, cfg_file, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("OPTLAB_OUT", str(root))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert root.is_dir() and list(root.iterdir())

    def test_bench_parallel_matches_serial(self, tmp_path):
        # adamw and signum replicates step as lane groups, prodigy's as one task per cell
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.name = par\n"
            "suite.optimizers = adamw, signum, prodigy\n"
            "suite.budgets = 25, 10\n"
            "suite.seeds = 2\n"
            "problem.kind = quadratic\n"
            "problem.noise = 0.5\n"
            "schedule.family = constant\n"
            "run.clip = 2.0\n"
            "adamw.optimizer.lr = 0.03\n"
            "signum.optimizer.lr = 0.01\n"
        )
        planned = bench._cell_config(bench.parse_suite(load_config_file(suite)))
        assert {(rule, budget) for (rule, budget, _), (_, safe) in planned.items() if safe} == {
            (rule, budget) for rule in ("adamw", "signum") for budget in (25, 10)
        }
        reports, runs = [], []
        for jobs, label in ((1, "serial"), (2, "parallel")):
            out = tmp_path / label
            assert main(["bench", "--config", str(suite), "--out", str(out), "--jobs", str(jobs)]) == 0
            bench_dir = next(out.glob("bench-*"))
            reports.append(bench_dir.joinpath("report.csv").read_text())
            runs.append({run_dir.name: _run_bytes(run_dir) for run_dir in (bench_dir / "runs").iterdir()})
        assert reports[0] == reports[1]
        assert len(runs[0]) == 3 * 2 * 2 and runs[0] == runs[1]
        serial_runs = next((tmp_path / "serial").glob("bench-*")) / "runs"
        for name, artifacts in runs[0].items():
            out = tmp_path / "alone" / name
            assert main(["run", "--config", str(serial_runs / name / "summary.json"), "--out", str(out)]) == 0
            assert _run_bytes(_single_run_dir(out)) == artifacts, name

    def test_bench_rerun_reproduces_report(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(
            "suite.optimizers = adamw\nsuite.budgets = 20\nsuite.seeds = 2\n"
            "problem.kind = quadratic\nschedule.family = constant\nadamw.optimizer.lr = 0.03\n"
        )
        texts = []
        for label in ("x", "y"):
            out = tmp_path / label
            main(["bench", "--config", str(suite), "--out", str(out)])
            texts.append(next(out.glob("bench-*")).joinpath("report.csv").read_text())
        assert texts[0] == texts[1]


def test_bench_suite_validation(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, adamw\nsuite.budgets = 10\n"
        "problem.kind = quadratic\nschedule.family = constant\n"
    )
    assert main(["bench", "--config", str(suite), "--out", str(tmp_path / "o")]) == 2
    assert "duplicates" in capsys.readouterr().err


def test_bench_rejects_zero_seeds(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw\nsuite.budgets = 10\nsuite.seeds = 0\n"
        "problem.kind = quadratic\nschedule.family = constant\n"
    )
    assert main(["bench", "--config", str(suite), "--out", str(tmp_path / "o")]) == 2
    assert "suite.seeds must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -2])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, jobs):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_bench_checks_every_rules_keys_before_running(tmp_path, capsys):
    # adamw takes no momentum: caught at parse time, before the signum cells run
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = signum, adamw\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nadamw.optimizer.momentum = 0.9\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert "'adamw' takes no hyperparameter 'momentum'" in capsys.readouterr().err
    assert not list(out.rglob("runs"))


def test_bench_checks_every_value_before_running(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, signum\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nsignum.run.clip = fast\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert "config key 'run.clip' needs a number or none, got 'fast'" in capsys.readouterr().err
    assert not list(out.rglob("runs"))


def test_bench_checks_value_ranges_before_running(tmp_path, capsys):
    # a zero clip would only fail at signum's first step, after the adamw cell ran
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, signum\nsuite.budgets = 5\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nsignum.run.clip = 0\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert "clip threshold must be positive, got 0.0" in capsys.readouterr().err
    assert not list(out.rglob("runs"))


@pytest.mark.parametrize(
    "key,value",
    [
        ("suite.seeds", "abc"),
        ("suite.seeds", "1.5"),
        ("suite.base_seed", "x"),
        ("suite.budgets", "10, x"),
        ("suite.budgets", "10, 10"),
        ("suite.budgets", "0"),
        ("suite.sedes", "1"),
    ],
)
def test_bench_rejects_bad_suite_values_before_running(tmp_path, capsys, key, value):
    lines = {
        "suite.optimizers": "adamw",
        "suite.budgets": "10",
        "suite.seeds": "1",
        "problem.kind": "quadratic",
        "schedule.family": "constant",
        key: value,
    }
    suite = tmp_path / "suite.cfg"
    suite.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.rglob("runs"))


@pytest.mark.parametrize("given", ["file", "--set"])
@pytest.mark.parametrize("prefix", ["", "adamw."])
@pytest.mark.parametrize(
    "key,value,by",
    [("run.seed", "7", "suite.base_seed"), ("run.steps", "50", "suite.budgets"),
     ("optimizer.name", "lion", "suite.optimizers")],
)
def test_bench_rejects_run_keys_that_the_suite_sets(tmp_path, capsys, given, prefix, key, value, by):
    # the suite sets these for every cell: accepted, each would only rename bench-<name>-<hash>
    suite = tmp_path / "suite.cfg"
    text = "suite.optimizers = adamw, signum\nsuite.budgets = 6\nsuite.seeds = 1\nproblem.kind = quadratic\n"
    suite.write_text(text + (f"{prefix}{key} = {value}\n" if given == "file" else ""))
    out = tmp_path / "o"
    extra = ["--set", f"{prefix}{key}={value}"] if given == "--set" else []
    assert main(["bench", "--config", str(suite), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == f"error: {suite}: {prefix}{key} is never read; {by} sets each cell's {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["x/../../escaped", "x\\..\\escaped"])
def test_bench_rejects_suite_name_with_path_separator(tmp_path, capsys, name):
    # the name becomes the output directory bench-<name>-<hash> under --out
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        f"suite.name = {name}\nsuite.optimizers = adamw\nsuite.budgets = 3\nsuite.seeds = 1\n"
        "problem.kind = quadratic\n"
    )
    assert main(["bench", "--config", str(suite), "--out", str(tmp_path / "out" / "root")]) == 2
    assert f"{suite}: suite.name must not contain a path separator, got {name!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [suite]


def test_bench_checks_coupled_wd_demo_before_running(tmp_path, capsys):
    # the demo is signum-only: caught at parse time, before the signum cells run
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = signum, adamw\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nrun.coupled_wd_demo = true\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert "run.coupled_wd_demo is only defined for the signum optimizer" in capsys.readouterr().err
    assert not list(out.rglob("runs"))


def test_bench_checks_gnb_pairing_before_running(tmp_path, capsys):
    # sophia needs the GNB estimator, which a quadratic lacks: caught before the adamw cells run
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, sophia\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "optimizer 'sophia' needs the GNB estimator but problem 'quadratic' has no categorical output" in err
    assert not list(out.rglob("runs"))


def test_bench_checks_problem_kind_before_running(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, signum\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nsignum.problem.kind = maze\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert "unknown problem.kind 'maze'; valid kinds: quadratic, rosenbrock, mlp" in capsys.readouterr().err
    assert not list(out.rglob("runs"))


def test_bench_rejects_rules_on_different_problems(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, signum, lion\nsuite.budgets = 10\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\nadamw.problem.kind = mlp\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 2
    assert (
        "every rule must run the same problem.kind, got adamw: mlp, signum: quadratic, lion: quadratic"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_bench_report_names_the_problem_its_cells_ran(tmp_path):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "suite.optimizers = adamw, signum\nsuite.budgets = 3\nsuite.seeds = 1\n"
        "problem.kind = quadratic\nschedule.family = constant\n"
        "adamw.problem.kind = mlp\nsignum.problem.kind = mlp\n"
    )
    out = tmp_path / "o"
    assert main(["bench", "--config", str(suite), "--out", str(out)]) == 0
    bench_dir = next(out.glob("bench-*"))
    assert json.loads((bench_dir / "report.json").read_text())["problem"] == "mlp"
    for summary in bench_dir.glob("runs/*/summary.json"):
        assert json.loads(summary.read_text())["config"]["problem.kind"] == "mlp"
