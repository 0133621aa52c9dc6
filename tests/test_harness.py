import json
import math

import numpy as np
import pytest

from optlab import harness, problems
from optlab.errors import ConfigurationError, PoisonedStateError
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
    assert len(asked) == blocks == math.ceil(steps / max_block)
    assert [k for keys in asked for k in keys] == [f"noise/{t}" for t in range(1, steps + 1)]


def test_an_mlp_run_draws_its_batches_in_one_block(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "indices_streams")
    cfg = {"problem.kind": "mlp", "problem.samples": 128, "problem.batch_size": 64, "run.steps": 150, "run.seed": 4}
    run(cfg)
    assert asked == [[f"batch/{t}" for t in range(1, 151)]]


def test_a_diverged_run_draws_no_step_past_its_plan(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "normal_streams")
    record = run(quad_config(**{"optimizer.lr": 1e4, "run.steps": 60, "problem.noise": 1.0}))
    assert record.diverged
    assert asked == [[f"noise/{t}" for t in range(1, 61)]]


def test_time_optimizer_plans_each_repeat(monkeypatch):
    asked = _count_stream_draws(monkeypatch, "normal_streams")
    problem = build_problem("quadratic", 1, dim=8, condition=2.0, noise=1.0)
    time_optimizer("adamw", {"lr": 0.01}, problem, steps=40, repeats=3, seed=5)
    assert len(asked) == 3  # each repeat runs its own seed, so an unplanned repeat would ramp in 6 draws
    assert all(keys == [f"noise/{t}" for t in range(1, 41)] for keys in asked)


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
