"""Replicate lanes: a lane group gives every lane the bytes of its own run.

``harness.run_lanes`` steps the replicates of one cell (configs that differ
only in ``run.seed``) as one engine over the blocks of one lane-stacked
problem, which evaluates every lane in one call. Each lane's
``record.csv`` (without ``step_time_ns``), ``final_loss`` and ``summary.json``
(without ``mean_step_time_ns``) must equal its ``run``'s, for every rule on
every problem, and a group in which a lane diverges is discarded for runs of
each lane alone.
"""

import json

import numpy as np
import pytest

from optlab import harness
from optlab.blocks import ParamBlock, global_norm
from optlab.errors import ContractViolationError
from optlab.harness import run, run_lanes
from optlab.optimizers import OPTIMIZER_NAMES, engine, make_optimizer

SEEDS = (11, 12, 13)

PROBLEMS = {
    "quadratic": {"problem.kind": "quadratic", "problem.dim": 16, "problem.condition": 30.0, "problem.noise": 1.0},
    "rosenbrock": {"problem.kind": "rosenbrock", "problem.dim": 6},
    # the MLP's w1, the one matrix block, is in_dim x hidden: wide (8x16) by default, then tall and square
    "mlp": {"problem.kind": "mlp", "problem.batch_size": 8},
    "mlp-tall": {"problem.kind": "mlp", "problem.batch_size": 8, "problem.in_dim": 30, "problem.hidden": 5},
    "mlp-square": {"problem.kind": "mlp", "problem.batch_size": 8, "problem.in_dim": 12, "problem.hidden": 12},
}

#: Every rule on every problem; sophia needs an MLP's GNB estimator.
CASES = [(problem, rule) for problem, keys in PROBLEMS.items() for rule in OPTIMIZER_NAMES
         if rule != "sophia" or keys["problem.kind"] == "mlp"]

#: (run.clip, run.log_every, schedule.family): clipping off and active, every step and every third logged
VARIANTS = [(None, 1, "cosine"), (0.05, 3, "wsd"), (0.05, 1, "cosine"), (None, 3, "wsd")]


def _configs(problem: str, rule: str, clip, log_every: int, family: str) -> list[dict]:
    base = {**PROBLEMS[problem], "optimizer.name": rule, "run.steps": 24, "run.clip": clip,
            "run.log_every": log_every, "schedule.family": family, "schedule.warmup_steps": 3}
    if rule == "sophia":
        base["optimizer.estimator_freq"] = 4
    return [{**base, "run.seed": seed} for seed in SEEDS]


def _artifacts(record) -> tuple[str, str]:
    """``record.csv`` without ``step_time_ns`` and ``summary.json`` without ``mean_step_time_ns``."""
    csv = "\n".join(line.rsplit(",", 1)[0] for line in record.csv_text().splitlines())
    summary = record.summary()
    del summary["mean_step_time_ns"]
    return csv, json.dumps(summary, sort_keys=True)


def _grouped(monkeypatch, configs):
    """``run_lanes(configs)``, failing if the group falls back to runs of each lane alone."""
    def no_fallback(cfg):
        raise AssertionError("the group was discarded")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run", no_fallback)
        return run_lanes(configs)


@pytest.mark.parametrize("clip,log_every,family", VARIANTS, ids=lambda v: str(v))
@pytest.mark.parametrize("problem,rule", CASES)
def test_each_lane_of_a_group_writes_the_bytes_of_its_own_run(monkeypatch, problem, rule, clip, log_every, family):
    configs = _configs(problem, rule, clip, log_every, family)
    singles = [run(cfg) for cfg in configs]
    assert not any(record.diverged for record in singles)
    if clip is not None:  # the clip must act on some step of some lane
        assert any(row.grad_norm > clip for record in singles for row in record.rows)
    for lane, single in zip(_grouped(monkeypatch, configs), singles):
        assert lane.final_loss == single.final_loss
        assert _artifacts(lane) == _artifacts(single)


def test_an_empty_group_raises():
    with pytest.raises(ContractViolationError, match="^a lane group needs at least one config$"):
        run_lanes([])


def test_a_group_of_one_lane_writes_the_bytes_of_its_own_run(monkeypatch):
    (config, *_) = _configs("mlp", "sophia", 0.05, 1, "cosine")
    (lane,), single = _grouped(monkeypatch, [config]), run(config)
    assert lane.final_loss == single.final_loss and _artifacts(lane) == _artifacts(single)


def test_a_group_of_configs_that_differ_beyond_the_seed_raises():
    configs = _configs("quadratic", "adamw", None, 1, "cosine")
    configs[1] = {**configs[1], "optimizer.lr": 0.5}
    with pytest.raises(ContractViolationError, match="may differ only in run.seed"):
        run_lanes(configs)


@pytest.mark.parametrize("shape", [(64,), (300, 17), (17, 300), (1, 1)])
def test_each_lane_norm_is_its_own_global_norm_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    lanes = 3
    stacked = [rng.standard_normal((lanes, *shape)) * rng.uniform(0.1, 10.0), rng.standard_normal((lanes, 5))]
    norms = global_norm(stacked, lanes)
    assert norms.shape == (lanes,)
    for i in range(lanes):
        assert norms[i] == global_norm([a[i] for a in stacked])
        assert global_norm(stacked[:1], lanes)[i] == global_norm([stacked[0][i]])


def test_a_lane_block_counts_its_lane_axis():
    w = ParamBlock("w", np.stack([np.full((4, 5), float(i)) for i in range(3)]), "matrix", 3)
    b = ParamBlock("b", np.zeros((3, 5)), lanes=3)
    assert (w.shape, w.lanes, w.role, b.shape, b.lanes) == ((3, 4, 5), 3, "matrix", (3, 5), 3)
    assert [float(w.values[i, 0, 0]) for i in range(3)] == [0.0, 1.0, 2.0]
    with pytest.raises(ContractViolationError, match="needs exactly 2 dimensions, got 1"):
        ParamBlock("w", np.zeros((3, 5)), "matrix", 3)
    with pytest.raises(ContractViolationError, match="of 3 lanes needs them on its first axis"):
        ParamBlock("b", np.zeros((2, 5)), "vector", 3)


@pytest.mark.parametrize("rule", ["adamw", "muon", "prodigy"])
def test_an_engine_over_stacked_and_plain_blocks_raises_before_it_builds_a_view_or_a_state(monkeypatch, rule):
    blocks = [ParamBlock("w", np.zeros((3, 4, 5)), "matrix", 3), ParamBlock("b", np.zeros(5))]
    built = []
    for owner, maker in ((engine, "ParamBlock"), (engine.base.AdamLikeState, "zeros"),
                         (engine.muon.MuonState, "for_block"), (engine.prodigy.ProdigyState, "for_blocks")):
        monkeypatch.setattr(owner, maker, lambda *args: built.append(args))
    with pytest.raises(ContractViolationError, match=r"one engine must stack the same lanes, got \[0, 3\]$"):
        make_optimizer(rule, blocks, 10)
    assert built == []


# -- fallback: a group in which a lane diverges runs each lane alone ------------------------------------

FAULT_STEP = 5


def _fault_in_lane(monkeypatch, seed: int, attr: str, fault):
    """Build the problems of run ``seed`` with their ``attr`` callable's part of that run replaced by ``fault`` of it
    from FAULT_STEP on: the whole output of the run's own problem, and that lane's part of a lane-stacked one."""
    build = harness.build_problem

    def built(kind, run_seed, **params):
        problem = build(kind, run_seed, **params)
        seeds = [run_seed] if isinstance(run_seed, int) else list(run_seed)
        if seed in seeds:
            real, lane = getattr(problem, attr), seeds.index(seed)

            def faulty(params, batch_seed):
                out = real(params, batch_seed)
                if batch_seed[1] < FAULT_STEP:
                    return out
                return fault(out) if problem.lanes == 0 else _faulty_lane(out, lane, fault)

            setattr(problem, attr, faulty)
        return problem

    monkeypatch.setattr(harness, "build_problem", built)


def _faulty_lane(out, lane: int, fault):
    """A lane-stacked ``(losses, grads)`` or ``grads`` output with lane ``lane``'s part replaced by ``fault`` of it."""
    def row(grads):
        return {name: g[lane] for name, g in grads.items()}

    def put(grads, lane_grads):
        grads = {name: g.copy() for name, g in grads.items()}
        for name, g in lane_grads.items():
            grads[name][lane] = g
        return grads

    if isinstance(out, dict):
        return put(out, fault(row(out)))
    losses, grads = out[0].copy(), out[1]
    losses[lane], lane_grads = fault((float(losses[lane]), row(grads)))
    return losses, put(grads, lane_grads)


def _assert_fallback_equals_singles(monkeypatch, configs, failed_seed, message):
    fell_back = []
    real_run = harness.run
    monkeypatch.setattr(harness, "run", lambda cfg: fell_back.append(cfg["run.seed"]) or real_run(cfg))
    lanes = run_lanes(configs)
    assert fell_back == list(SEEDS)
    singles = [real_run(cfg) for cfg in configs]
    for lane, single, seed in zip(lanes, singles, SEEDS):
        assert _artifacts(lane) == _artifacts(single)
        assert lane.final_loss == single.final_loss
        if seed == failed_seed:
            assert lane.failure == {"kind": "PoisonedStateError", "step": FAULT_STEP, "message": message}
            assert lane.final_loss is None
        else:
            assert lane.failure is None and lane.final_loss is not None


def test_a_lane_whose_loss_goes_non_finite_sends_every_lane_to_its_own_run(monkeypatch):
    _fault_in_lane(monkeypatch, SEEDS[1], "loss_and_grad", lambda out: (float("nan"), out[1]))
    _assert_fallback_equals_singles(monkeypatch, _configs("quadratic", "adamw", 0.05, 1, "cosine"), SEEDS[1],
                                    "loss diverged")


def test_a_lane_whose_loss_goes_to_minus_infinity_sends_every_lane_to_its_own_run(monkeypatch):
    # the other lanes' losses are finite, so the largest loss alone would pass the check
    _fault_in_lane(monkeypatch, SEEDS[2], "loss_and_grad", lambda out: (float("-inf"), out[1]))
    _assert_fallback_equals_singles(monkeypatch, _configs("quadratic", "signum", None, 1, "cosine"), SEEDS[2],
                                    "loss diverged")


def test_a_lane_whose_loss_diverges_sends_every_lane_to_its_own_run(monkeypatch):
    _fault_in_lane(monkeypatch, SEEDS[2], "loss_and_grad", lambda out: (2e6, out[1]))
    _assert_fallback_equals_singles(monkeypatch, _configs("quadratic", "lion", None, 3, "wsd"), SEEDS[2],
                                    "loss diverged")


def test_a_lane_a_rule_check_finds_non_finite_sends_every_lane_to_its_own_run(monkeypatch):
    # sophia checks the resampled (GNB) gradient itself; the loop never takes its norm
    nan_grads = lambda grads: {name: np.full_like(g, np.nan) for name, g in grads.items()}  # noqa: E731
    _fault_in_lane(monkeypatch, SEEDS[0], "resampled_grad", nan_grads)
    _assert_fallback_equals_singles(monkeypatch, _configs("mlp", "sophia", 0.05, 1, "cosine"), SEEDS[0],
                                    "non-finite gradient")


def test_a_lane_error_of_another_kind_propagates_from_the_group(monkeypatch):
    def fault(out):
        raise RuntimeError("lane fault")

    _fault_in_lane(monkeypatch, SEEDS[1], "loss_and_grad", fault)
    with pytest.raises(RuntimeError, match="lane fault"):
        run_lanes(_configs("quadratic", "adamw", None, 1, "cosine"))


@pytest.mark.parametrize("problem,rule,fault,message", [
    ("mlp", "muon", lambda out: (out[0], {**out[1], "w1": np.full_like(out[1]["w1"], np.nan)}),
     "non-finite gradient norm"),
    ("quadratic", "prodigy", lambda out: (float("nan"), out[1]), "loss diverged"),
], ids=["muon-mlp", "prodigy-quadratic"])
def test_a_faulty_lane_of_a_rule_that_steps_lane_by_lane_sends_every_lane_to_its_own_run(
    monkeypatch, problem, rule, fault, message
):
    # muon steps the MLP's w1 and prodigy every block one lane at a time; the group falls back all the same
    _fault_in_lane(monkeypatch, SEEDS[1], "loss_and_grad", fault)
    _assert_fallback_equals_singles(monkeypatch, _configs(problem, rule, None, 1, "cosine"), SEEDS[1], message)
