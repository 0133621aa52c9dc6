import math

import numpy as np
import pytest

from optlab.errors import ConfigurationError, ContractViolationError, UnsupportedEstimatorError
from optlab.problems import (
    _PREFETCH_VALUES,
    _StepDraws,
    DEFAULTS,
    KINDS,
    BatchSpec,
    build_problem,
    finite_difference_gradient,
    mlp_classification_problem,
    quadratic_problem,
    rosenbrock_problem,
)
from optlab.rng import Rng


class TestQuadratic:
    def test_gradient_is_displacement_for_identity(self):
        problem = quadratic_problem(1, 1.0, Rng(1, "q"))
        x_star = problem.minimizer["x"]
        _, grads = problem.loss_and_grad({"x": x_star + 3.0}, (1, 1))
        assert grads["x"][0] == pytest.approx(3.0, abs=1e-12)

    def test_minimizer_has_zero_gradient_and_loss(self):
        problem = quadratic_problem(20, 10.0, Rng(2, "q"))
        loss, grads = problem.loss_and_grad(problem.minimizer, (0, 1))
        assert np.max(np.abs(grads["x"])) <= 1e-10
        assert abs(loss - problem.optimal_value) <= 1e-12
        assert problem.optimal_value == 0.0

    def test_finite_differences(self):
        problem = quadratic_problem(20, 100.0, Rng(3, "q"))
        params = {"x": problem.init_blocks(0)[0].values}
        _, analytic = problem.loss_and_grad(params, (3, 1))
        numeric = finite_difference_gradient(problem, params, (3, 1), 1e-5)
        rel = np.max(np.abs(analytic["x"] - numeric["x"])) / np.max(np.abs(analytic["x"]))
        assert rel <= 1e-7

    def test_noise_shrinks_with_batch(self):
        base = Rng(4, "q")
        noisy = quadratic_problem(10, 10.0, base, BatchSpec(batch_size=1, noise_scale=2.0))
        x = noisy.minimizer["x"]
        _, g = noisy.loss_and_grad({"x": x}, (9, 1))
        # at the optimum the gradient is pure noise at scale sigma/sqrt(B)
        assert 0.1 <= float(np.std(g["x"])) * math.sqrt(10 / (10 - 1)) <= 6.0

    def test_common_random_numbers_with_noise(self):
        problem = quadratic_problem(6, 10.0, Rng(5, "q"), BatchSpec(batch_size=4, noise_scale=1.0))
        params = {"x": problem.init_blocks(0)[0].values}
        _, analytic = problem.loss_and_grad(params, (5, 3))
        numeric = finite_difference_gradient(problem, params, (5, 3), 1e-5)
        rel = np.max(np.abs(analytic["x"] - numeric["x"])) / np.max(np.abs(analytic["x"]))
        assert rel <= 1e-6

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            quadratic_problem(0, 10.0, Rng(1, "q"))
        with pytest.raises(ContractViolationError):
            quadratic_problem(5, 0.5, Rng(1, "q"))

    def test_gnb_unsupported(self):
        problem = quadratic_problem(3, 2.0, Rng(6, "q"))
        with pytest.raises(UnsupportedEstimatorError):
            problem.gnb_grad({"x": np.zeros(3)}, (0, 1))


class TestRosenbrock:
    def test_global_minimum(self):
        problem = rosenbrock_problem(6)
        loss, grads = problem.loss_and_grad({"x": np.ones(6)}, (0, 1))
        assert loss == 0.0
        assert np.all(grads["x"] == 0.0)

    def test_origin_dim2(self):
        problem = rosenbrock_problem(2)
        loss, grads = problem.loss_and_grad({"x": np.zeros(2)}, (0, 1))
        assert loss == 1.0
        assert np.array_equal(grads["x"], np.array([-2.0, 0.0]))

    def test_finite_differences(self):
        problem = rosenbrock_problem(8)
        r = Rng(7, "rb")
        for i in range(3):
            params = {"x": r.normal(8)}
            _, analytic = problem.loss_and_grad(params, (0, 1))
            numeric = finite_difference_gradient(problem, params, (0, 1), 1e-6)
            rel = np.max(np.abs(analytic["x"] - numeric["x"])) / max(np.max(np.abs(analytic["x"])), 1.0)
            assert rel <= 1e-7

    def test_odd_dim_rejected(self):
        with pytest.raises(ContractViolationError):
            rosenbrock_problem(5)


@pytest.fixture(scope="module")
def problem():
    return mlp_classification_problem(5, 7, 3, 60, Rng(8, "mlp"), BatchSpec(batch_size=12))


class TestMlp:

    def test_untrained_loss_near_uniform_entropy(self, problem):
        blocks = problem.init_blocks(0)
        loss = problem.full_loss({b.name: b.values for b in blocks})
        assert abs(loss - math.log(3)) < 0.1

    def test_block_roles(self, problem):
        roles = {b.name: b.role for b in problem.init_blocks(0)}
        assert roles == {"w1": "matrix", "b1": "vector", "w2": "output_head", "b2": "vector"}

    def test_finite_differences_every_block(self, problem):
        blocks = problem.init_blocks(1)
        params = {b.name: b.values for b in blocks}
        _, analytic = problem.loss_and_grad(params, (8, 2))
        numeric = finite_difference_gradient(problem, params, (8, 2), 1e-5)
        for name in params:
            scale = max(float(np.max(np.abs(analytic[name]))), 1e-8)
            assert np.max(np.abs(analytic[name] - numeric[name])) / scale <= 1e-6

    def test_determinism_bit_for_bit(self, problem):
        params = {b.name: b.values for b in problem.init_blocks(0)}
        l1, g1 = problem.loss_and_grad(params, (8, 5))
        l2, g2 = problem.loss_and_grad(params, (8, 5))
        assert l1 == l2
        for name in g1:
            assert np.array_equal(g1[name], g2[name])

    def test_gnb_supported_and_deterministic(self, problem):
        assert problem.supports_gnb
        params = {b.name: b.values for b in problem.init_blocks(0)}
        r1 = problem.gnb_grad(params, (8, 5))
        r2 = problem.gnb_grad(params, (8, 5))
        for name in r1:
            assert np.array_equal(r1[name], r2[name])
            assert np.all(16 * r1[name] * r1[name] >= 0.0)


def test_build_problem_dispatch():
    assert build_problem("quadratic", 1, dim=4, condition=5.0).name == "quadratic"
    assert build_problem("rosenbrock", 1, dim=4).name == "rosenbrock"
    assert build_problem("mlp", 1).name == "mlp"
    with pytest.raises(ContractViolationError):
        build_problem("maze", 1)


@pytest.mark.parametrize(
    "kind,params,key",
    [("mlp", {"hiden": 512}, "hiden"), ("quadratic", {"dim": 2.7}, "'dim'"), ("quadratic", {"noise": "x"}, "'noise'")],
)
def test_build_problem_rejects_unknown_keys_and_wrong_kinds(kind, params, key):
    with pytest.raises(ConfigurationError, match=key):
        build_problem(kind, 5, **params)


@pytest.mark.parametrize("kind", list(KINDS))
def test_kinds_and_defaults_match_what_build_problem_builds(kind):
    problem = build_problem(kind, 1)
    assert problem.supports_gnb == KINDS[kind]
    d = DEFAULTS
    shapes = {
        "quadratic": [(d["dim"],)],
        "rosenbrock": [(d["dim"],)],
        "mlp": [(d["in_dim"], d["hidden"]), (d["hidden"],), (d["hidden"], d["classes"]), (d["classes"],)],
    }
    assert [b.shape for b in problem.init_blocks(0)] == shapes[kind]


def test_batch_spec_validation():
    with pytest.raises(ContractViolationError):
        BatchSpec(batch_size=0)
    with pytest.raises(ContractViolationError):
        BatchSpec(noise_scale=-1.0)


@pytest.mark.parametrize(
    "name,lr",
    [
        ("adamw", 1e-3), ("adopt", 1e-3), ("ademamix", 1e-3), ("lion", 1e-3),
        ("signum", 1e-3), ("muon", 1e-3), ("dmuon", 1e-3), ("soap", 1e-3),
        ("sf-adamw", 1e-2), ("prodigy", 1.0), ("mars-adamw", 1e-3),
        ("mars-lion", 1e-3), ("mars-shampoo", 1e-3),
    ],
)
def test_small_lr_loss_nonincreasing_over_windows(name, lr):
    # deterministic quadratic: with a small enough constant LR, mean loss over
    # consecutive 50-step windows never increases
    from optlab.harness import run

    record = run(
        {
            "problem.kind": "quadratic",
            "problem.dim": 20,
            "problem.condition": 10.0,
            "optimizer.name": name,
            "optimizer.lr": lr,
            "optimizer.weight_decay": 0.0,
            "schedule.family": "constant",
            "run.steps": 300,
            "run.seed": 13,
        }
    )
    losses = [row.loss for row in record.rows]
    windows = [sum(losses[i : i + 50]) / 50 for i in range(0, 300, 50)]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier * (1 + 1e-9)


PREFETCH_PROBLEMS = {
    "quadratic": lambda: quadratic_problem(16, 10.0, Rng(7, "q"), BatchSpec(batch_size=2, noise_scale=1.0)),
    "mlp": lambda: mlp_classification_problem(4, 8, 3, 50, Rng(8, "m"), BatchSpec(batch_size=7)),
}

# the patterns a prefetch must serve exactly as a fresh problem asked step by step
ACCESS_PATTERNS = {
    "interleaved_seeds": [(s, t) for t in range(1, 40) for s in (11, 12)],
    "backwards": [(11, t) for t in range(120, 0, -1)],
    "repeated": [(11, 1), (11, 2), (11, 3)] + [(11, 5)] * 4 + [(11, 4)],
    "jump_ahead": [(11, t) for t in range(1, 20)] + [(11, 200), (11, 201), (11, 57), (11, 300)],
    "second_run_seed": [(11, t) for t in range(1, 30)] + [(12, t) for t in range(1, 30)] + [(11, 3)],
}

# each problem's per-step stream and the scalar draw that row ``t`` of run ``seed`` must equal
SCALAR_ROWS = {
    "quadratic": lambda seed, t: Rng(seed, f"noise/{t}").normal(16),
    "mlp": lambda seed, t: Rng(seed, f"batch/{t}").indices(50, 7),
}


def _sequential_answers(kind, seed, last):
    problem = PREFETCH_PROBLEMS[kind]()
    params = {b.name: b.values for b in problem.init_blocks(0)}
    return {t: problem.loss_and_grad(params, (seed, t)) for t in range(1, last + 1)}


@pytest.mark.parametrize("pattern", ACCESS_PATTERNS)
@pytest.mark.parametrize("kind", PREFETCH_PROBLEMS)
def test_prefetched_draws_do_not_depend_on_access_order(kind, pattern):
    calls = ACCESS_PATTERNS[pattern]
    last = max(t for _, t in calls)
    expected = {seed: _sequential_answers(kind, seed, last) for seed in {s for s, _ in calls}}
    problem = PREFETCH_PROBLEMS[kind]()
    params = {b.name: b.values for b in problem.init_blocks(0)}
    for seed, t in calls:
        loss, grads = problem.loss_and_grad(params, (seed, t))
        want_loss, want_grads = expected[seed][t]
        assert loss == want_loss
        assert all(np.array_equal(grads[name], want_grads[name]) for name in want_grads)


def test_prefetched_noise_is_the_scalar_stream():
    problem = PREFETCH_PROBLEMS["quadratic"]()
    x_star = problem.minimizer["x"]
    for t in range(1, 70):
        _, grads = problem.loss_and_grad({"x": x_star}, (11, t))
        xi = Rng(11, f"noise/{t}").normal(16)
        assert np.array_equal(grads["x"], (1.0 / math.sqrt(2.0)) * xi)  # a x* - b is exactly 0


def test_prefetch_block_doubles_on_sequential_steps_and_is_capped_by_values():
    asked = []

    def draw(seed, keys):
        asked.append(len(keys))
        return np.zeros((len(keys), width))

    width = 1
    draws = _StepDraws("noise", width, draw)
    for t in range(1, 32):
        draws(3, t)
    assert asked == [1, 2, 4, 8, 16]
    draws(3, 100)  # a jump starts over at one step
    draws(4, 101)  # so does another run seed
    assert asked[-2:] == [1, 1]
    asked.clear()
    width = _PREFETCH_VALUES // 3 + 1
    draws = _StepDraws("noise", width, draw)
    for t in range(1, 10):
        draws(3, t)
    assert asked == [1, 2, 2, 2, 2]


@pytest.mark.parametrize("planned", ["whole", "half"])
@pytest.mark.parametrize("pattern", ACCESS_PATTERNS)
@pytest.mark.parametrize("kind", PREFETCH_PROBLEMS)
def test_planned_draws_are_the_scalar_rows_in_any_access_order(kind, pattern, planned):
    calls = ACCESS_PATTERNS[pattern]
    last = max(t for _, t in calls)
    problem = PREFETCH_PROBLEMS[kind]()
    problem.draw_ahead(11, last if planned == "whole" else last // 2)  # steps past a plan fall back to the ramp
    (draws,) = problem.step_draws
    for seed, t in calls:
        assert np.array_equal(draws(seed, t), SCALAR_ROWS[kind](seed, t))


def test_planned_blocks_cover_the_run_and_stop_at_its_last_step():
    asked = []

    def draw(seed, keys):
        asked.append(keys)
        return np.zeros((len(keys), width))

    width = 1
    draws = _StepDraws("noise", width, draw)
    draws.plan(3, 40)
    assert asked == []  # a plan draws nothing until a step is asked for
    for t in range(1, 41):
        draws(3, t)
    assert asked == [[f"noise/{t}" for t in range(1, 41)]]
    asked.clear()
    width = _PREFETCH_VALUES // 3 + 1  # two steps per block
    draws = _StepDraws("noise", width, draw)
    draws.plan(3, 5)
    for t in range(1, 6):
        draws(3, t)
    assert [len(keys) for keys in asked] == [2, 2, 1]
    assert asked[-1] == ["noise/5"]


def test_draw_ahead_without_step_streams_does_nothing():
    problem = rosenbrock_problem(4)
    assert problem.step_draws == ()
    problem.draw_ahead(1, 100)
