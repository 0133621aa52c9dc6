import json

import pytest

from optlab.bench import SuiteSpec, run_suite
from optlab.errors import ConfigurationError
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
        (("adamw", "sf-adamw"), {"sf-adamw": {"optimizer.sf_warmup": -1}}, "warmup_steps must be >= 0"),
        (("adamw", "lion"), {"lion": {"problem.dim": 0}}, "dim must be >= 1"),
        (("adamw", "soap"), {"adamw": MLP, "soap": {**MLP, "optimizer.precond_freq": 0}},
         "precond_freq must be >= 1 or None, got 0"),
    ],
    ids=["gnb-pairing", "unknown-hyperparameter", "unknown-optimizer", "warmup-covers-budget", "negative-lr",
         "ademamix-alpha", "sf-warmup", "problem-dim", "soap-precond-freq"],
)
def test_built_suite_is_checked_before_any_cell_runs(tmp_path, optimizers, overrides, message):
    suite = SuiteSpec("x", optimizers, (5,), 1, 1, dict(BASE), overrides)
    with pytest.raises(ConfigurationError, match=f"^suite 'x': .*{message}"):
        run_suite(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()



def test_suite_cells_are_named_and_seeded_by_rule_budget_and_replicate(tmp_path):
    suite = SuiteSpec("x", ("signum", "adamw"), (3, 2), 2, 7, dict(BASE), {})
    run_suite(suite, tmp_path)
    cells = [(rule, budget, rep) for rule in ("signum", "adamw") for budget in (3, 2) for rep in range(2)]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(f"{o}-b{b}-r{r}" for o, b, r in cells)
    for rule, budget, rep in cells:
        cfg = json.loads((tmp_path / "runs" / f"{rule}-b{budget}-r{rep}" / "summary.json").read_text())["config"]
        assert cfg["run.seed"] == stable_hash(7, rule, budget, rep)
        assert (cfg["run.steps"], cfg["optimizer.name"]) == (budget, rule)
