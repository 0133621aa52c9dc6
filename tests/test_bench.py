import json
import re

import pytest

from optlab import harness
from optlab.bench import SuiteSpec, run_suite
from optlab.cli import main
from optlab.config import value_to_str
from optlab.errors import ConfigurationError, ContractViolationError
from optlab.rng import stable_hash

BASE = {"problem.kind": "quadratic", "schedule.family": "constant"}
MLP = {"problem.kind": "mlp"}


@pytest.mark.parametrize(
    "optimizers,overrides,message",
    [
        (("adamw", "sophia"), {}, "optimizer 'sophia' needs the GNB estimator"),
        (("signum", "adamw"), {"adamw": {"optimizer.momentum": 0.9}}, "'adamw' takes no hyperparameter 'momentum'"),
        (("adamw", "sgd"), {}, "unknown optimizer 'sgd'"),
        (("adamw", "signum"), {"signum": {"schedule.warmup_steps": 5}}, "need 0 <= warmup_steps < total_steps"),
        (("adamw", "signum"), {"signum": {"optimizer.lr": -0.001}}, "gamma_max must be positive"),
        (("adamw", "ademamix"), {"ademamix": {"optimizer.alpha": -1}}, "alpha must be >= 0"),
        (("adamw", "ademamix"), {"ademamix": {"optimizer.alpha": float("nan")}}, "alpha must be >= 0"),
        (("adamw", "prodigy"), {"prodigy": {"optimizer.d0": -1}}, "d0 must be finite and > 0, got -1"),
        (("adamw", "prodigy"), {"prodigy": {"optimizer.d0": 0}}, "d0 must be finite and > 0, got 0"),
        (("adamw", "sf-adamw"), {"sf-adamw": {"optimizer.sf_warmup": -1}}, "warmup_steps must be >= 0"),
        (("adamw", "lion"), {"lion": {"problem.dim": 0}}, "dim must be >= 1"),
        (("adamw", "soap"), {"adamw": MLP, "soap": {**MLP, "optimizer.precond_freq": 0}},
         "precond_freq must be >= 1 or None, got 0"),
    ],
    ids=["gnb-pairing", "unknown-hyperparameter", "unknown-optimizer", "warmup-covers-budget", "negative-lr",
         "ademamix-alpha", "ademamix-alpha-nan", "prodigy-d0-negative", "prodigy-d0-zero", "sf-warmup", "problem-dim",
         "soap-precond-freq"],
)
def test_built_suite_is_checked_before_any_cell_runs(tmp_path, optimizers, overrides, message):
    suite = SuiteSpec("x", optimizers, (5,), 1, 1, dict(BASE), overrides)
    with pytest.raises(ConfigurationError, match=f"^suite 'x': .*{message}"):
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


def test_suite_cells_are_named_and_seeded_by_rule_budget_and_replicate(tmp_path):
    suite = SuiteSpec("x", ("signum", "adamw"), (3, 2), 2, 7, dict(BASE), {})
    run_suite(suite, tmp_path)
    cells = [(rule, budget, rep) for rule in ("signum", "adamw") for budget in (3, 2) for rep in range(2)]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(f"{o}-b{b}-r{r}" for o, b, r in cells)
    for rule, budget, rep in cells:
        cfg = json.loads((tmp_path / "runs" / f"{rule}-b{budget}-r{rep}" / "summary.json").read_text())["config"]
        assert cfg["run.seed"] == stable_hash(7, rule, budget, rep)
        assert (cfg["run.steps"], cfg["optimizer.name"]) == (budget, rule)
