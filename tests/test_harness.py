import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from optlab import harness, problems
from optlab.config import config_hash, value_to_str
from optlab.errors import ConfigurationError, ContractViolationError, PoisonedStateError
from optlab.harness import clip_gradients, run, sweep, time_optimizer
from optlab.problems import _PREFETCH_VALUES, build_problem
from optlab.runio import write_run_artifacts
from optlab.rng import stable_hash


def quad_config(**overrides):
    cfg = {
        "problem.kind": "quadratic",
        "problem.dim": 20,
        "problem.condition": 10.0,
        "optimizer.name": "adamw",
        "optimizer.lr": 0.03,
        "optimizer.weight_decay": 0.0,
        "schedule.family": "constant",
        "schedule.warmup_steps": 0,
        "run.steps": 100,
        "run.seed": 1,
    }
    cfg.update(overrides)
    return cfg


class TestClip:
    def test_below_threshold_unchanged(self):
        grads, norm = clip_gradients({"a": np.array([0.18, 0.24])}, 0.5)
        assert norm == pytest.approx(0.3, abs=1e-15)
        assert np.array_equal(grads["a"], np.array([0.18, 0.24]))

    def test_three_four_five(self):
        grads, norm = clip_gradients({"a": np.array([3.0]), "b": np.array([4.0])}, 0.5)
        assert norm == 5.0
        total = math.sqrt(float(grads["a"][0]) ** 2 + float(grads["b"][0]) ** 2)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_direction_preserved(self):
        g = np.array([1.0, -2.0, 3.0])
        grads, norm = clip_gradients({"a": g.copy()}, 0.5)
        cos = float(grads["a"] @ g) / (np.linalg.norm(grads["a"]) * np.linalg.norm(g))
        assert abs(cos - 1.0) <= 1e-12

    def test_nonfinite_poisons(self):
        with pytest.raises(PoisonedStateError):
            clip_gradients({"a": np.array([np.inf])}, 0.5)

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            clip_gradients({"a": np.ones(2)}, 0.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="clip threshold must be positive, got nan"):
            clip_gradients({"a": np.ones(2)}, math.nan)


class TestRun:
    def test_row_count_and_logging(self):
        record = run(quad_config())
        assert len(record.rows) == 100
        assert [r.step for r in record.rows] == list(range(1, 101))
        record = run(quad_config(**{"run.log_every": 7}))
        assert [r.step for r in record.rows][-1] == 100  # final step always logged

    def test_deterministic_trajectories(self):
        r1, r2 = run(quad_config()), run(quad_config())
        assert [row.loss for row in r1.rows] == [row.loss for row in r2.rows]
        assert r1.final_loss == r2.final_loss

    def test_adamw_converges_on_quadratic(self):
        record = run(quad_config(**{"run.steps": 500}))
        initial = record.rows[0].loss
        assert record.final_loss <= 1e-6 * initial

    def test_divergence_flag_is_permanent(self):
        record = run(quad_config(**{"optimizer.lr": 1e4, "run.steps": 200}))
        assert record.diverged
        assert record.divergence_step is not None
        assert record.final_loss is None
        assert all(row.step < record.divergence_step for row in record.rows)

    def test_warmup_lr_logged_exactly(self):
        record = run(quad_config(**{"schedule.family": "cosine", "schedule.warmup_steps": 10, "run.steps": 50}))
        for row in record.rows[:10]:
            assert row.lr == 0.03 * row.step / 10

    def test_grad_norm_is_preclip(self):
        record = run(quad_config(**{"run.clip": 1e-6, "run.steps": 20}))
        assert all(row.grad_norm > 1e-3 for row in record.rows)

    def test_sophia_requires_gnb_problem(self):
        with pytest.raises(ConfigurationError):
            run(quad_config(**{"optimizer.name": "sophia"}))

    def test_sophia_runs_on_mlp(self):
        cfg = {
            "problem.kind": "mlp",
            "problem.samples": 64,
            "problem.batch_size": 16,
            "optimizer.name": "sophia",
            "optimizer.lr": 0.01,
            "run.steps": 25,
            "run.seed": 2,
        }
        record = run(cfg)
        assert not record.diverged
        assert record.final_loss < math.log(3)

    @pytest.mark.parametrize(
        "rule,key,value,message",
        [
            ("muon", "optimizer.lr_1d", -0.001, "gamma must be finite and >= 0, got -0.001"),
            ("dmuon", "optimizer.rms_factor", -1, "rms_factor must be positive, got -1"),
        ],
    )
    def test_value_that_would_step_uphill_fails_at_step_one(self, rule, key, value, message):
        cfg = {"problem.kind": "mlp", "problem.samples": 64, "optimizer.name": rule, key: value,
               "schedule.family": "constant", "run.steps": 5}
        with pytest.raises(ContractViolationError, match=message):
            run(cfg)

    def test_coupled_wd_demo_is_signum_only(self):
        with pytest.raises(ConfigurationError):
            run(quad_config(**{"run.coupled_wd_demo": True}))

    def test_prodigy_populates_d_column(self):
        record = run(quad_config(**{"optimizer.name": "prodigy", "optimizer.lr": 1.0, "run.steps": 50}))
        assert all(row.d is not None for row in record.rows)
        assert all(0.0 < row.effective_lr != row.lr for row in record.rows)
        d_values = [row.d for row in record.rows]
        assert d_values == sorted(d_values)

    def test_effective_lr_equals_lr_for_non_prodigy(self):
        record = run(quad_config(**{"run.steps": 10}))
        assert all(row.effective_lr == row.lr for row in record.rows)


class TestSweep:
    def test_empty_grid_single_run(self):
        results = sweep(quad_config(), {})
        assert len(results) == 1 and results[0][0] == {}

    def test_grid_product_and_distinct_seeds(self):
        results = sweep(quad_config(**{"run.steps": 5}), {"optimizer.lr": [0.01, 0.02, 0.03], "run.clip": [0.5, None]})
        assert len(results) == 6
        # the first grid key varies slowest
        assert [assignment for assignment, _ in results] == [
            {"optimizer.lr": lr, "run.clip": clip} for lr in (0.01, 0.02, 0.03) for clip in (0.5, None)
        ]
        seeds = [rec.config["run.seed"] for _, rec in results]
        assert seeds == [stable_hash(1, i) for i in range(6)]
        assert len(set(seeds)) == 6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(quad_config(), {"optimizer.learning_rate": [0.1]})

    def test_bad_last_cell_raises_before_any_cell_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run", lambda cfg, _run=run: ran.append(cfg) or _run(cfg))
        with pytest.raises(ContractViolationError, match="gamma_max must be positive"):
            sweep(quad_config(**{"run.steps": 5}), {"optimizer.lr": [0.01, 0.02, -1.0]})
        assert ran == []

    def test_bad_problem_raises_before_any_cell_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run", lambda cfg, _run=run: ran.append(cfg) or _run(cfg))
        with pytest.raises(ContractViolationError, match="dim must be >= 1"):
            sweep(quad_config(**{"run.steps": 5}), {"problem.dim": [4, 0]})
        assert ran == []

    @pytest.mark.parametrize("axis", [{"optimizer.lr": []}, {"optimizer.name": "adamw"}], ids=["empty", "text"])
    def test_an_axis_without_a_list_of_values_raises_naming_it_before_any_cell_is_planned(self, monkeypatch, axis):
        from optlab import bench

        planned = []
        monkeypatch.setattr(bench, "plan_cells", lambda *args: planned.append(args))
        ((key, values),) = axis.items()
        message = f"sweep axis {key!r} must list at least one value, got {values!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            sweep(quad_config(), {"run.clip": [None], **axis})
        assert planned == []

    def test_seed_grid_runs_the_seeds_it_names(self):
        results = sweep(quad_config(**{"run.steps": 3}), {"run.seed": [1, 2]})
        assert [assignment for assignment, _ in results] == [{"run.seed": 1}, {"run.seed": 2}]
        assert [rec.config["run.seed"] for _, rec in results] == [1, 2]


class TestConfigResolution:
    # plot.window is a plotdata setting, not a run key
    @pytest.mark.parametrize("key", ["problem.dimm", "run.stepz", "plot.window"])
    def test_misspelt_key_rejected_naming_it(self, key):
        with pytest.raises(ConfigurationError, match=key):
            run(quad_config(**{key: 5}))

    def test_preset_applies_as_on_the_command_line(self):
        record = run(quad_config(**{"optimizer.preset": "124m-small", "schedule.warmup_steps": 5}))
        assert record.config["optimizer.lr"] == 0.03  # the caller's value beats the preset
        assert record.config["run.clip"] == 0.5  # the preset beats the default
        assert record.config["optimizer.beta1"] == 0.8

    def test_sweep_applies_each_cells_preset(self):
        base = quad_config(**{"run.steps": 5, "optimizer.preset": "124m-small", "schedule.warmup_steps": 1})
        del base["optimizer.lr"]
        results = sweep(base, {"optimizer.name": ["adamw", "lion"]})
        assert [rec.config["optimizer.lr"] for _, rec in results] == [0.0005, 0.0001]


class TestTimeOptimizer:
    def test_mean_and_std_reported(self):
        problem = build_problem("quadratic", 1, dim=10, condition=5.0)
        result = time_optimizer("adamw", {"lr": 0.01}, problem, steps=5, repeats=5)
        assert result.mean_ns > 0
        assert result.std_ns >= 0.0
        assert len(result.repeat_means_ns) == 5

    def test_validation(self):
        problem = build_problem("quadratic", 1, dim=4, condition=2.0)
        with pytest.raises(ConfigurationError):
            time_optimizer("adamw", {}, problem, steps=0)

    def test_gnb_optimizer_needs_categorical_problem(self):
        problem = build_problem("quadratic", 1, dim=4, condition=2.0)
        with pytest.raises(ConfigurationError):
            time_optimizer("sophia", {}, problem, steps=2, repeats=1)

    def test_diverging_repeat_raises(self):
        problem = build_problem("quadratic", 1, dim=10, condition=5.0)
        with pytest.raises(PoisonedStateError, match=r"'adamw' diverged in repeat 0 at step \d+"):
            time_optimizer("adamw", {"lr": 1e4}, problem, steps=5, repeats=2)

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_a_lane_stacked_problem_is_rejected_before_any_engine_is_built(self, noise, monkeypatch):
        problem = build_problem("quadratic", (1, 2), dim=4, noise=noise)
        monkeypatch.setattr(harness, "make_optimizer", lambda *args: pytest.fail("an engine was built"))
        with pytest.raises(ContractViolationError, match="one run's problem, got one of 2 lanes"):
            time_optimizer("adamw", {"lr": 0.01}, problem, steps=3, repeats=2)


@pytest.mark.parametrize("times", [
    [7], [1, 2], [3, 1, 4, 1, 5, 9, 2, 6], [10**6 + k * 997 for k in range(1000)],
    [2**53 - 1, 2**53, 2**53 + 1], [2**53 + 1, 1, 2**53 + 3],
    [2**53 + 1, 2**53 - 8, 2**53 + 5, 2**53 - 5, 2**53 - 3],  # fsum rounds each int first: the exact mean reads 1 more
])
def test_mean_step_time_is_statistics_fmean(monkeypatch, times):
    # the pins strip mean_step_time_ns, so this holds _train's mean of the step times to fmean's value
    import statistics

    assert math.fsum(times) / len(times) == statistics.fmean(times)
    problem = build_problem("quadratic", 1, dim=4, condition=2.0)
    engine = harness.make_optimizer("adamw", problem.init_blocks(0), len(times), {"lr": 1e-3})
    record, clock = harness.RunRecord(config={}), iter(tick for t in times for tick in (0, t))
    monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: next(clock))  # step t takes times[t - 1]
    harness._train(problem, 1, [record], engine, harness.ScheduleSpec("constant", 1e-3, len(times)), None, 1)
    monkeypatch.undo()
    assert record.mean_step_time_ns == statistics.fmean(times)


@pytest.mark.parametrize("key, numpy_value, value", [
    ("run.seed", np.int64(5), 5),
    ("optimizer.lr", np.float64(0.01), 0.01),
    ("problem.dim", np.int32(7), 7),
    ("run.coupled_wd_demo", np.False_, False),
])
def test_a_numpy_scalar_in_a_config_runs_as_the_equal_python_value(tmp_path, key, numpy_value, value):
    records = [run(quad_config(**{"run.steps": 5, key: v})) for v in (numpy_value, value)]
    assert type(records[0].config[key]) is type(value) and records[0].config == records[1].config
    assert config_hash(records[0].config) == config_hash(records[1].config)
    untimed = [[line.rsplit(",", 1)[0] for line in r.csv_text().splitlines()] for r in records]  # no step_time_ns
    assert untimed[0] == untimed[1]
    summaries = [write_run_artifacts(r, tmp_path / str(i)) / "summary.json" for i, r in enumerate(records)]
    texts = [json.loads(path.read_text(encoding="utf-8")) for path in summaries]
    for text in texts:
        del text["mean_step_time_ns"]
    assert texts[0] == texts[1]


def test_run_and_time_optimizer_share_the_patchable_loop(monkeypatch):
    # profilers wrap these module attributes; both drivers must reach them through the module
    calls = {}
    for name in ("clip_gradients", "lr_at", "make_optimizer"):
        def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    run(quad_config(**{"run.steps": 3}))
    assert calls == {"clip_gradients": 3, "lr_at": 3, "make_optimizer": 1}
    calls.clear()
    time_optimizer("adamw", {"lr": 0.01}, build_problem("quadratic", 1, dim=4, condition=2.0), steps=3, repeats=2)
    assert calls == {"clip_gradients": 6, "lr_at": 6, "make_optimizer": 2}


def test_perfbench_trace_hooks_install(tmp_path):
    # perfbench's traced pass wraps optlab names by attribute; a name it patches that is gone fails here
    root = Path(__file__).resolve().parents[1]
    code = "import sys, pathlib, tracing; tracing.install(tracing.Recorder(), pathlib.Path(sys.argv[1]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "perfbench"), str(root / "src")])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_perfbench_setup_clocks_advance(tmp_path):
    # perfbench's untraced pass times these names as setup_s; one no longer reached through its module reads 0
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import pathlib, sys, workloads
        from optlab import bench, harness
        cells, setup = workloads.SetupClock(), workloads.SetupClock()
        cells.wrap(bench, "_cell_config")
        suite = bench.SuiteSpec("x", ("adamw",), (3,), 1, 1, {"problem.dim": 4}, {})
        bench.run_suite(suite, pathlib.Path(sys.argv[1]))
        setup.wrap(harness, "setup_run")
        harness.run({"problem.dim": 4, "run.steps": 3})
        assert cells.seconds > 0 and setup.seconds > 0, (cells.seconds, setup.seconds)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "perfbench"), str(root / "src")])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _count_stream_draws(monkeypatch, name):
    """Record the keys of every batched draw of ``problems.<name>``."""
    asked = []
    real = getattr(problems, name)

    def counted(seed, keys, *args):
        asked.append(list(keys))
        return real(seed, keys, *args)

    monkeypatch.setattr(problems, name, counted)
    return asked


@pytest.mark.parametrize("steps,dim,blocks", [(40, 32, 1), (80, 32, 1), (160, 32, 1), (1000, 64, 4), (700, 40, 2)])
def test_a_run_draws_its_noise_in_blocks_sized_to_the_run(monkeypatch, steps, dim, blocks):
    asked = _count_stream_draws(monkeypatch, "normal_streams")
    run(quad_config(**{"run.steps": steps, "problem.dim": dim, "problem.noise": 2.0, "problem.batch_size": 4}))
    max_block = _PREFETCH_VALUES // dim
    # the build draws the problem stream first, through the same call
    assert asked[0] == ["problem"] and len(asked) - 1 == blocks == math.ceil(steps / max_block)
    noise = [f"noise/{t}" for t in range(1, steps + 1)]
    assert asked[1:] == [noise[i : i + max_block] for i in range(0, steps, max_block)]


def test_an_mlp_run_draws_its_batches_in_one_block(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "indices_streams")
    cfg = {"problem.kind": "mlp", "problem.samples": 128, "problem.batch_size": 64, "run.steps": 150, "run.seed": 4}
    run(cfg)
    assert asked == [[f"batch/{t}" for t in range(1, 151)]]


def test_a_diverged_run_draws_no_step_past_its_plan(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "normal_streams")
    record = run(quad_config(**{"optimizer.lr": 1e4, "run.steps": 60, "problem.noise": 1.0}))
    assert record.diverged
    assert asked == [["problem"], [f"noise/{t}" for t in range(1, 61)]]


def test_time_optimizer_plans_each_repeat(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "normal_streams")
    problem = build_problem("quadratic", 1, dim=8, condition=2.0, noise=1.0)
    time_optimizer("adamw", {"lr": 0.01}, problem, steps=40, repeats=3, seed=5)
    # each repeat runs its own seed, from its own start; an unplanned repeat would draw 40 single steps
    noise = [f"noise/{t}" for t in range(1, 41)]
    assert asked == [["problem"], noise, ["quadratic/init/1"], noise, ["quadratic/init/2"], noise]


class TestFailure:
    def test_clean_run_has_no_failure(self, tmp_path):
        record = run(quad_config(**{"run.steps": 5}))
        assert record.failure is None
        summary = json.loads((write_run_artifacts(record, tmp_path) / "summary.json").read_text())
        assert summary["failure"] is None

    def test_divergence_reports_the_loss_check_at_its_step(self, tmp_path):
        record = run(quad_config(**{"optimizer.lr": 1e4, "run.steps": 200}))
        failure = {"kind": "PoisonedStateError", "step": record.divergence_step, "message": "loss diverged"}
        assert record.failure == failure
        summary = json.loads((write_run_artifacts(record, tmp_path) / "summary.json").read_text())
        assert summary["failure"] == failure and summary["diverged"] is True

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_buffer_reports_the_buffer_message(self):
        # d0 * d0 * g * g overflows prodigy's second moment in the first step; the loss is still finite
        record = run(quad_config(**{"optimizer.name": "prodigy", "optimizer.lr": 1.0, "optimizer.d0": 1e200}))
        assert record.divergence_step == 1
        assert record.failure == {"kind": "PoisonedStateError", "step": 1, "message": "non-finite state buffer in prodigy"}


def test_run_rows_and_step_infos_are_immutable_records():
    from optlab.optimizers.engine import StepInfo

    fields = ("step", "loss", "grad_norm", "update_norm", "param_norm", "lr", "effective_lr", "d", "step_time_ns")
    values = (3, 0.5, 1.25, 0.1, 2.0, 0.001, 1 / 3, None, 1234)
    row = harness.RunRow(*values)
    assert row == harness.RunRow(**dict(zip(fields, values)))
    assert row != harness.RunRow(*values[:-1], 1235)
    assert harness.RunRow._fields == fields and tuple(getattr(row, f) for f in fields) == values
    info = StepInfo(0.25, 0.01)
    assert info == StepInfo(update_norm=0.25, effective_lr=0.01, d=None) and info.d is None
    assert StepInfo(0.25, 0.01, 2.0) != info and StepInfo._fields == ("update_norm", "effective_lr", "d")
    for record, name in ((row, "loss"), (info, "update_norm")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0


def test_run_row_csv_bytes():
    assert harness.RunRow(3, 0.5, 1.25, 0.1, 2.0, 0.001, 1 / 3, None, 1234).csv() == (
        "3,0.5,1.25,0.1,2.0,0.001,0.3333333333333333,,1234"
    )
    assert harness.RunRow(7, 1e-20, 3e8, 0.0, 2.5, 0.05, 0.025, 1.5e-6, 99).csv() == (
        "7,1e-20,300000000.0,0.0,2.5,0.05,0.025,1.5e-06,99"
    )


#: Floats whose text is easy to get wrong: signed zero, NaN, infinities, the smallest subnormal, a huge and a repeating one.
AWKWARD = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1 / 3)


def _value_to_str_line(row) -> str:
    return ",".join("" if value is None else value_to_str(value) for value in row)


def _record_text(rows) -> str:
    return "".join(line + "\n" for line in (harness.CSV_HEADER, *map(_value_to_str_line, rows)))


def test_the_record_formatter_writes_every_value_as_value_to_str_does():
    n = len(AWKWARD)
    rows = [
        harness.RunRow(t, *(AWKWARD[(t + i) % n] for i in range(6)), d, 2**70 + t)
        for t in range(1, 2 * n + 1)
        for d in (None, AWKWARD[t % n])
    ]
    for row in rows:
        assert row.csv() == _value_to_str_line(row)
    assert harness.RunRecord({}, rows).csv_text() == _record_text(rows)
    # a lane group: each logged step's shared columns are the same objects in every lane, as harness._train logs them
    lanes = [harness.RunRecord({}) for _ in range(3)]
    for t, row in enumerate(rows, start=1):
        for lane, record in enumerate(lanes):
            own = (AWKWARD[(t + lane + i) % n] for i in range(4))
            record.rows.append(harness.RunRow(row.step, *own, row.lr, row.effective_lr, row.d, row.step_time_ns))
    assert harness.csv_texts(lanes) == [_record_text(record.rows) for record in lanes]
    assert harness.csv_texts([]) == []
    assert harness.csv_texts([harness.RunRecord({})]) == [harness.CSV_HEADER + "\n"]


def test_lanes_that_differ_in_a_shared_column_each_get_their_own_text():
    zero, big = 0.0, 2**70
    # equal by == but not by text (-0.0, 0.0), a NaN of its own, a step and a d of their own, and a lane with fewer rows
    shared = [(1, zero, 0.5, None, big), (2, 0.25, zero, 1.5, big)]
    lane_values = [
        [(1, zero, 0.5, None, big), (2, 0.25, zero, 1.5, big)],
        [(1, -0.0, 0.5, None, big), (2, 0.25, -0.0, 1.5, big)],
        [(1, float("nan"), 0.5, None, big), (2, 0.25, zero, float("nan"), big)],
        [(3, zero, 0.5, 2.5, 2**70), (2, 0.25, zero, None, big + 1)],
    ]
    groups = [[harness.RunRecord({}, [harness.RunRow(step, 1.0, 2.0, 3.0, 4.0, lr, eff, d, ns)
                                      for step, lr, eff, d, ns in values]) for values in [shared, *lane_values]]]
    groups.append([*groups[0], harness.RunRecord({}, groups[0][0].rows[:1])])
    for records in groups:
        texts = harness.csv_texts(records)
        assert texts == [record.csv_text() for record in records] == [_record_text(r.rows) for r in records]
    assert texts[2].splitlines()[1:] == ["1,1.0,2.0,3.0,4.0,-0.0,0.5,,1180591620717411303424",
                                         "2,1.0,2.0,3.0,4.0,0.25,-0.0,1.5,1180591620717411303424"]


def _lane_grads(block_shape, rng):
    """Two blocks of 4 lanes: lane 0 under the threshold, lane 1 exactly at it, lane 2 over it, lane 3 all zeros."""
    grads = {"w": rng.normal(size=(4, *block_shape)), "b": rng.normal(size=(4, 3))}
    for g in grads.values():
        g[0], g[2], g[3] = 0.5 * g[1], 3.0 * g[1], 0.0
    threshold = harness.global_norm([g[1] for g in grads.values()])
    return grads, threshold


@pytest.mark.parametrize("block_shape", [(5,), (3, 2)], ids=["2-d", "3-d"])
def test_the_lane_clip_and_norms_keep_each_lanes_bytes_without_numpy_warnings(block_shape):
    grads, threshold = _lane_grads(block_shape, np.random.default_rng(7))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        clipped, norms = clip_gradients(grads, threshold, 4)
        assert norms.shape == (4,) and norms[3] == 0.0 and norms[1] == threshold
        for lane in range(4):
            alone, norm = clip_gradients({name: g[lane] for name, g in grads.items()}, threshold)
            assert norms[lane].tobytes() == np.float64(norm).tobytes()
            assert norms[lane] == harness.global_norm([g[lane] for g in grads.values()])
            for name, g in clipped.items():
                assert g[lane].tobytes() == alone[name].tobytes()
                if lane != 2:  # scaled by exactly 1.0
                    assert g[lane].tobytes() == grads[name][lane].tobytes()
        assert clip_gradients(grads, math.inf, 4)[0] is grads  # no lane over: nothing is scaled
        assert clip_gradients(grads, 4 * threshold, 4)[0] is grads
        for bad in (math.nan, math.inf):
            poisoned = {name: g.copy() for name, g in grads.items()}
            poisoned["w"][1].flat[0] = bad
            with pytest.raises(PoisonedStateError, match="non-finite gradient norm"):
                clip_gradients(poisoned, threshold, 4)
        for not_positive in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match="clip threshold must be positive"):
                clip_gradients(grads, not_positive, 4)
        assert np.array_equal(harness.global_norm([], 3), np.zeros(3))


def test_profiled_names_are_reached_on_every_step(monkeypatch):
    # perfbench wraps these module attributes; the step loop and the rules must look them up on every call
    from optlab.optimizers import base, engine

    calls = {}
    targets = [(harness, "global_norm"), (engine, "global_norm")]
    targets += [(base, name) for name in ("check_finite_grad", "check_finite_values", "check_finite_buffers")]
    for module, name in targets:
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"

        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run(quad_config(**{"run.steps": 3}))  # one block; clip and param norm on every logged step
    per_step = {"engine.global_norm": 1, "base.check_finite_grad": 1, "base.check_finite_values": 1,
                "base.check_finite_buffers": 1}
    assert calls == {"harness.global_norm": 6, **{k: 3 * v for k, v in per_step.items()}}
    calls.clear()
    time_optimizer("adamw", {"lr": 0.01}, build_problem("quadratic", 1, dim=4, condition=2.0), steps=3, repeats=2)
    assert calls == {"harness.global_norm": 2 * (3 + 1), **{k: 6 * v for k, v in per_step.items()}}
    calls.clear()
    # a lane group reaches each name once per step for all of its lanes
    records = harness.run_lanes([quad_config(**{"run.steps": 3, "run.seed": seed}) for seed in (1, 2, 3)])
    assert not any(record.diverged for record in records)
    assert calls == {"harness.global_norm": 6, **{k: 3 * v for k, v in per_step.items()}}
