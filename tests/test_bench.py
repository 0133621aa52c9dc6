import json
import re
from pathlib import Path

import pytest

from optlab import bench, harness
from optlab.bench import SuiteSpec, run_suite
from optlab.cli import main
from optlab.config import value_to_str
from optlab.errors import ConfigurationError, ContractViolationError
from optlab.rng import stable_hash

BASE = {"problem.kind": "quadratic", "schedule.family": "constant"}
MLP = {"problem.kind": "mlp"}


def on_mlp(rule, key, value):
    """Suite overrides that run adamw and ``rule`` on the MLP, whose matrix blocks take the rule's own path."""
    return {"adamw": MLP, rule: {**MLP, f"optimizer.{key}": value}}


@pytest.mark.parametrize(
    "optimizers,overrides,message",
    [
        (("adamw", "sophia"), {}, "optimizer 'sophia' needs the GNB estimator"),
        (("signum", "adamw"), {"adamw": {"optimizer.momentum": 0.9}}, "'adamw' takes no hyperparameter 'momentum'"),
        (("adamw", "sgd"), {}, "unknown optimizer 'sgd'"),
        (("adamw", "signum"), {"signum": {"schedule.warmup_steps": 5}}, "need 0 <= warmup_steps < total_steps"),
        (("adamw", "signum"), {"signum": {"optimizer.lr": -0.001}}, "gamma_max must be positive"),
        (("adamw", "signum"), {"signum": {"optimizer.lr": float("inf")}},
         "gamma_max must be positive and finite, got inf"),
        (("adamw", "signum"), {"signum": {"schedule.family": "wsd", "schedule.wsd_cooldown_fraction": 0.5,
                                          "schedule.warmup_steps": 4}},
         "wsd warmup_steps (4) must not exceed the cooldown start (1 - wsd_cooldown_fraction) * total_steps = 2.5"),
        (("adamw", "ademamix"), {"ademamix": {"optimizer.alpha": -1}}, "alpha must be >= 0"),
        (("adamw", "ademamix"), {"ademamix": {"optimizer.alpha": float("nan")}}, "alpha must be >= 0"),
        (("adamw", "prodigy"), {"prodigy": {"optimizer.d0": -1}}, "d0 must be finite and > 0, got -1"),
        (("adamw", "prodigy"), {"prodigy": {"optimizer.d0": 0}}, "d0 must be finite and > 0, got 0"),
        (("adamw", "sf-adamw"), {"sf-adamw": {"optimizer.sf_warmup": -1}}, "warmup_steps must be >= 0"),
        (("adamw", "lion"), {"lion": {"problem.dim": 0}}, "dim must be >= 1"),
        (("adamw", "soap"), {"adamw": MLP, "soap": {**MLP, "optimizer.precond_freq": 0}},
         "precond_freq must be >= 1 or None, got 0"),
        # checked by the rule's first step, which the planner runs
        (("adamw", "lion"), {"lion": {"optimizer.beta1": 1.5}}, "beta1 must lie in (0, 1), got 1.5"),
        (("adamw", "adopt"), {"adopt": {"optimizer.beta2": 1.0}}, "beta2 must lie in (0, 1), got 1.0"),
        (("adamw", "ademamix"), {"ademamix": {"optimizer.eps": 0.0}}, "eps must be finite and > 0"),
        (("adamw", "signum"), {"signum": {"optimizer.weight_decay": -1.0}}, "lam must be finite and >= 0"),
        (("adamw", "muon"), {"muon": {"optimizer.beta1_1d": 1.5}}, "beta1 must lie in (0, 1), got 1.5"),
        (("adamw", "dmuon"), {"dmuon": {"optimizer.beta2_1d": -0.5}}, "beta2 must lie in (0, 1), got -0.5"),
        (("adamw", "mars-adamw"), {"mars-adamw": {"optimizer.weight_decay_1d": -1.0}}, "lam must be finite and >= 0"),
        (("adamw", "muon"), {"muon": {"optimizer.lr_1d": -0.001}}, "gamma must be finite and >= 0, got -0.001"),
        (("adamw", "signum"), {"signum": {"optimizer.momentum": 1.5}}, "beta must lie in [0, 1), got 1.5"),
        (("adamw", "signum"), {"signum": {"optimizer.dampening": 1.5}}, "dampening must lie in [0, 1), got 1.5"),
        (("adamw", "muon"), on_mlp("muon", "momentum", 1.5), "beta must lie in [0, 1), got 1.5"),
        (("adamw", "dmuon"), on_mlp("dmuon", "momentum", -0.1), "beta must lie in [0, 1), got -0.1"),
        (("adamw", "dmuon"), on_mlp("dmuon", "rms_factor", 0.0), "rms_factor must be positive, got 0.0"),
        (("adamw", "sophia"), on_mlp("sophia", "rho", 0.0), "rho must be positive, got 0.0"),
        (("adamw", "sophia"), on_mlp("sophia", "estimator_freq", 0), "estimator_freq must be >= 1, got 0"),
        (("adamw", "muon"), on_mlp("muon", "ns_iters", 0), "iters must be >= 1"),
        (("adamw", "mars-shampoo"), on_mlp("mars-shampoo", "ns_iters", 0), "iters must be >= 1"),
        (("adamw", "mars-lion"), on_mlp("mars-lion", "eta", -1), "eta must be finite and >= 0, got -1"),
        (("adamw", "muon"), on_mlp("muon", "ns_a", float("nan")), "ns_a must be finite, got nan"),
        (("adamw", "dmuon"), on_mlp("dmuon", "ns_b", float("inf")), "ns_b must be finite, got inf"),
        (("adamw", "mars-shampoo"), on_mlp("mars-shampoo", "ns_c", float("-inf")), "ns_c must be finite, got -inf"),
        (("adamw", "dmuon"), on_mlp("dmuon", "rms_factor", float("inf")), "rms_factor must be finite, got inf"),
        (("adamw", "sophia"), on_mlp("sophia", "rho", float("inf")), "rho must be finite, got inf"),
    ],
    ids=["gnb-pairing", "unknown-hyperparameter", "unknown-optimizer", "warmup-covers-budget", "negative-lr",
         "infinite-lr", "wsd-warmup-past-cooldown",
         "ademamix-alpha", "ademamix-alpha-nan", "prodigy-d0-negative", "prodigy-d0-zero", "sf-warmup", "problem-dim",
         "soap-precond-freq", "lion-beta1", "adopt-beta2", "ademamix-eps", "signum-weight-decay", "muon-beta1-1d",
         "dmuon-beta2-1d", "mars-weight-decay-1d", "muon-negative-lr-1d", "signum-momentum", "signum-dampening",
         "muon-momentum", "dmuon-momentum", "dmuon-rms-factor", "sophia-rho", "sophia-estimator-freq",
         "muon-ns-iters", "mars-shampoo-ns-iters", "mars-eta", "muon-ns-a-nan", "dmuon-ns-b-inf",
         "mars-shampoo-ns-c-inf", "dmuon-rms-factor-inf", "sophia-rho-inf"],
)
def test_built_suite_is_checked_before_any_cell_runs(tmp_path, optimizers, overrides, message):
    suite = SuiteSpec("x", optimizers, (5,), 1, 1, dict(BASE), overrides)
    with pytest.raises(ConfigurationError, match=f"^suite 'x': .*{re.escape(message)}"):
        run_suite(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,good,bad,error,message",
    [
        ("problem.kind", "quadratic", "maze", ContractViolationError,
         "unknown problem.kind 'maze'; valid kinds: quadratic, rosenbrock, mlp"),
        ("problem.noise", 0.0, -1, ContractViolationError, "noise_scale must be finite and >= 0, got -1"),
        ("problem.noise", 0.0, float("inf"), ContractViolationError, "noise_scale must be finite and >= 0, got inf"),
        ("problem.condition", 10.0, 0.5, ContractViolationError, "condition must be finite and >= 1, got 0.5"),
        ("run.coupled_wd_demo", False, True, ConfigurationError,
         "run.coupled_wd_demo is only defined for the signum optimizer"),
    ],
    ids=["kind", "noise-negative", "noise-inf", "condition", "coupled-wd-demo"],
)
def test_every_entry_point_rejects_what_the_built_run_rejects_before_any_step(
    tmp_path, monkeypatch, capsys, key, good, bad, error, message
):
    # resolve() accepts these values; the problem or engine built from them rejects them
    trained, ran = [], []
    run = harness.run
    monkeypatch.setattr(harness, "_train", lambda *args: trained.append(args))
    monkeypatch.setattr(harness, "run", lambda cfg: ran.append(cfg))
    with pytest.raises(error, match=re.escape(message)):
        run({**BASE, key: bad})
    with pytest.raises(error, match=re.escape(message)):
        harness.sweep(BASE, {key: [good, bad]})
    assert trained == [] and ran == []

    suite = SuiteSpec("x", ("adamw", "lion"), (5,), 1, 1, dict(BASE), {"lion": {key: bad}})
    with pytest.raises(ConfigurationError, match="^suite 'x': " + re.escape(message)):
        run_suite(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {value_to_str(v)}\n" for k, v in {**BASE, key: bad}.items()))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("clip,shown", [(0, "0.0"), (-1.5, "-1.5")])
def test_every_entry_point_rejects_a_clip_that_is_not_positive(tmp_path, monkeypatch, capsys, clip, shown):
    # resolve() accepts it; clip_gradients rejects it at a run's first step, which the planner runs
    message = f"clip threshold must be positive, got {shown}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        harness.run({**BASE, "run.clip": clip})
    ran = []
    monkeypatch.setattr(harness, "run", lambda cfg: ran.append(cfg))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        harness.sweep(BASE, {"run.clip": [0.5, clip]})
    assert ran == []

    suite = SuiteSpec("x", ("adamw", "lion"), (5,), 1, 1, dict(BASE), {"lion": {"run.clip": clip}})
    with pytest.raises(ConfigurationError, match="^suite 'x': " + re.escape(message)):
        run_suite(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {value_to_str(v)}\n" for k, v in {**BASE, "run.clip": clip}.items()))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_sweep_over_a_value_the_step_checks_raises_before_any_run(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run", lambda cfg: ran.append(cfg))
    with pytest.raises(ContractViolationError, match=re.escape("beta1 must lie in (0, 1), got 1.5")):
        harness.sweep({**BASE, "optimizer.name": "lion"}, {"optimizer.beta1": [0.9, 1.5]})
    assert ran == []


def _count_planned_engines(monkeypatch) -> list:
    built = []
    monkeypatch.setattr(bench, "build_engine", lambda *args: built.append(args) or harness.build_engine(*args))
    return built


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the divergence is the point
def test_a_cell_whose_first_step_diverges_passes_the_pre_flight_and_ranks_diverged(tmp_path, monkeypatch):
    built = _count_planned_engines(monkeypatch)
    overrides = {"adamw": {"optimizer.lr": 1e308, "optimizer.weight_decay": 1e10}}
    table = run_suite(SuiteSpec("x", ("adamw", "lion"), (3, 4), 3, 1, dict(BASE), overrides), tmp_path)
    assert len(built) == 4  # one per distinct cell: 2 rules x 2 budgets, not 12
    for budget in (3, 4):
        assert [(row.optimizer, row.diverged) for row in table.ranked(budget)] == [("lion", False), ("adamw", True)]
        for rep in range(3):
            summary = json.loads((tmp_path / "runs" / f"adamw-b{budget}-r{rep}" / "summary.json").read_text())
            assert summary["divergence_step"] == 1


def test_a_seed_grid_is_checked_once(monkeypatch):
    built = _count_planned_engines(monkeypatch)
    results = harness.sweep({**BASE, "run.steps": 2}, {"run.seed": [1, 2, 3]})
    assert len(built) == 1
    assert [record.config["run.seed"] for _, record in results] == [1, 2, 3]


def test_suite_cells_are_named_and_seeded_by_rule_budget_and_replicate(tmp_path):
    suite = SuiteSpec("x", ("signum", "adamw"), (3, 2), 2, 7, dict(BASE), {})
    run_suite(suite, tmp_path)
    cells = [(rule, budget, rep) for rule in ("signum", "adamw") for budget in (3, 2) for rep in range(2)]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(f"{o}-b{b}-r{r}" for o, b, r in cells)
    for rule, budget, rep in cells:
        cfg = json.loads((tmp_path / "runs" / f"{rule}-b{budget}-r{rep}" / "summary.json").read_text())["config"]
        assert cfg["run.seed"] == stable_hash(7, rule, budget, rep)
        assert (cfg["run.steps"], cfg["optimizer.name"]) == (budget, rule)


def _recorded_tasks(monkeypatch) -> list:
    """Each task ``run_suite`` runs, in order: (task function, the names of its run directories)."""
    tasks = []
    for name, run_dirs in (("_run_cell", lambda args: [args[1]]), ("_run_lanes", lambda args: args[1])):
        def task(args, name=name, real=getattr(bench, name), run_dirs=run_dirs):
            tasks.append((name, [Path(run_dir).name for run_dir in run_dirs(args)]))
            return real(args)

        monkeypatch.setattr(bench, name, task)
    return tasks


@pytest.mark.parametrize("seeds", [2, 1])
def test_suite_tasks_go_out_longest_budget_first_in_rule_order(tmp_path, monkeypatch, seeds):
    # adamw and signum are lane-safe, prodigy is not; a group of one replicate is one cell
    tasks = _recorded_tasks(monkeypatch)
    run_suite(SuiteSpec("x", ("adamw", "signum", "prodigy"), (10, 25), seeds, 1, dict(BASE), {}), tmp_path, jobs=1)
    if seeds == 1:
        expected = [("_run_cell", [f"{rule}-b{b}-r0"]) for b in (25, 10) for rule in ("adamw", "signum", "prodigy")]
    else:
        expected = [task for b in (25, 10) for task in [
            ("_run_lanes", [f"adamw-b{b}-r0", f"adamw-b{b}-r1"]),
            ("_run_lanes", [f"signum-b{b}-r0", f"signum-b{b}-r1"]),
            ("_run_cell", [f"prodigy-b{b}-r0"]),
            ("_run_cell", [f"prodigy-b{b}-r1"]),
        ]]
    assert tasks == expected
