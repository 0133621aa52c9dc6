import inspect
import math
import re

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
)
from optlab.rng import Rng


class TestQuadratic:
    def test_gradient_is_displacement_for_identity(self):
        problem = build_problem("quadratic", 1, dim=1, condition=1.0)
        x_star = problem.minimizer["x"]
        _, grads = problem.loss_and_grad({"x": x_star + 3.0}, (1, 1))
        assert grads["x"][0] == pytest.approx(3.0, abs=1e-12)

    def test_minimizer_has_zero_gradient_and_loss(self):
        problem = build_problem("quadratic", 2, dim=20, condition=10.0)
        loss, grads = problem.loss_and_grad(problem.minimizer, (0, 1))
        assert np.max(np.abs(grads["x"])) <= 1e-10
        assert abs(loss - problem.optimal_value) <= 1e-12
        assert problem.optimal_value == 0.0

    def test_finite_differences(self):
        problem = build_problem("quadratic", 3, dim=20, condition=100.0)
        params = {"x": problem.init_blocks(0)[0].values}
        _, analytic = problem.loss_and_grad(params, (3, 1))
        numeric = finite_difference_gradient(problem, params, (3, 1), 1e-5)
        rel = np.max(np.abs(analytic["x"] - numeric["x"])) / np.max(np.abs(analytic["x"]))
        assert rel <= 1e-7

    def test_noise_shrinks_with_batch(self):
        noisy = build_problem("quadratic", 4, dim=10, condition=10.0, noise=2.0, batch_size=1)
        x = noisy.minimizer["x"]
        _, g = noisy.loss_and_grad({"x": x}, (9, 1))
        # at the optimum the gradient is pure noise at scale sigma/sqrt(B)
        assert 0.1 <= float(np.std(g["x"])) * math.sqrt(10 / (10 - 1)) <= 6.0
        batched = build_problem("quadratic", 4, dim=10, condition=10.0, noise=2.0, batch_size=4)
        _, g4 = batched.loss_and_grad({"x": x}, (9, 1))
        assert np.array_equal(g["x"], 2.0 * g4["x"])  # the same step's noise at half the scale

    def test_common_random_numbers_with_noise(self):
        problem = build_problem("quadratic", 5, dim=6, condition=10.0, noise=1.0, batch_size=4)
        params = {"x": problem.init_blocks(0)[0].values}
        _, analytic = problem.loss_and_grad(params, (5, 3))
        numeric = finite_difference_gradient(problem, params, (5, 3), 1e-5)
        rel = np.max(np.abs(analytic["x"] - numeric["x"])) / np.max(np.abs(analytic["x"]))
        assert rel <= 1e-6

    @pytest.mark.parametrize("dim", [1, 2, 7, 33, 64, 65])
    def test_dot_forms_give_the_bytes_of_the_matmul_forms(self, dim):
        """Unkeyed, so it runs on every numpy/BLAS build: the loss and gradient
        go through ``ndarray.dot``, which must round as the ``@`` forms do."""
        problem = build_problem("quadratic", dim, dim=dim, condition=100.0, noise=1.0)
        closure = inspect.getclosurevars(problem.loss_and_grad).nonlocals
        a, b, x_star = closure["a"], closure["b"], closure["x_star"]
        assert (a == a.T).all()
        rng = np.random.default_rng(dim)
        for step in range(1, 7):  # from x far from x* (the quadratic term leads) to near it (the noise leads)
            x = x_star + 10.0 ** (2 - step) * rng.standard_normal(dim)
            dx = x - x_star
            scaled = closure["sigma_eff"] * closure["noise"](7, step)
            loss, grads = problem.loss_and_grad({"x": x}, (7, step))
            assert grads["x"].tobytes() == (a @ x - b + scaled).tobytes()
            assert loss.hex() == (float(0.5 * dx @ a @ dx) + float(scaled @ dx)).hex()
            assert problem.full_loss({"x": x}).hex() == float(0.5 * dx @ a @ dx).hex()

    def test_validation(self):
        with pytest.raises(ContractViolationError, match="dim must be >= 1"):
            build_problem("quadratic", 1, dim=0, condition=10.0)
        with pytest.raises(ContractViolationError, match="condition must be finite and >= 1, got 0.5"):
            build_problem("quadratic", 1, dim=5, condition=0.5)

    def test_gnb_unsupported(self):
        problem = build_problem("quadratic", 6, dim=3, condition=2.0)
        with pytest.raises(UnsupportedEstimatorError):
            problem.gnb_grad({"x": np.zeros(3)}, (0, 1))


class TestRosenbrock:
    def test_global_minimum(self):
        problem = build_problem("rosenbrock", 1, dim=6)
        loss, grads = problem.loss_and_grad({"x": np.ones(6)}, (0, 1))
        assert loss == 0.0
        assert np.all(grads["x"] == 0.0)

    def test_origin_dim2(self):
        problem = build_problem("rosenbrock", 1, dim=2)
        loss, grads = problem.loss_and_grad({"x": np.zeros(2)}, (0, 1))
        assert loss == 1.0
        assert np.array_equal(grads["x"], np.array([-2.0, 0.0]))

    def test_finite_differences(self):
        problem = build_problem("rosenbrock", 1, dim=8)
        r = Rng(7, "rb")
        for i in range(3):
            params = {"x": r.normal(8)}
            _, analytic = problem.loss_and_grad(params, (0, 1))
            numeric = finite_difference_gradient(problem, params, (0, 1), 1e-6)
            rel = np.max(np.abs(analytic["x"] - numeric["x"])) / max(np.max(np.abs(analytic["x"])), 1.0)
            assert rel <= 1e-7

    def test_odd_dim_rejected(self):
        with pytest.raises(ContractViolationError, match="dim must be even and >= 2"):
            build_problem("rosenbrock", 1, dim=5)


MLP_PARAMS = {"in_dim": 5, "hidden": 7, "classes": 3, "samples": 60, "batch_size": 12}


@pytest.fixture(scope="module")
def problem():
    return build_problem("mlp", 8, **MLP_PARAMS)


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

    def test_init_blocks_are_fresh_draws_of_one_value(self, problem):
        first = problem.init_blocks(2)
        for block in first:
            block.values += 1.0
        fresh = build_problem("mlp", 8, **MLP_PARAMS).init_blocks(2)
        again = problem.init_blocks(2)
        for a, b, f in zip(again, fresh, first):
            assert np.array_equal(a.values, b.values)
            assert not np.shares_memory(a.values, f.values)

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
    with pytest.raises(ContractViolationError, match="unknown problem.kind 'maze'; valid kinds: quadratic, rosenbrock"):
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
    assert problem.supports_gnb == (kind == "mlp")
    d = DEFAULTS
    shapes = {
        "quadratic": [(d["dim"],)],
        "rosenbrock": [(d["dim"],)],
        "mlp": [(d["in_dim"], d["hidden"]), (d["hidden"],), (d["hidden"], d["classes"]), (d["classes"],)],
    }
    assert [b.shape for b in problem.init_blocks(0)] == shapes[kind]


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_kind_rejects_a_non_default_value_of_a_key_it_does_not_read(kind):
    unread = [key for key in DEFAULTS if key != "kind" and key not in KINDS[kind]]
    for key in unread:
        message = f"problem.kind '{kind}' does not read problem.{key} (got {DEFAULTS[key] + 1!r}); it reads "
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            build_problem(kind, 1, **{key: DEFAULTS[key] + 1})
    # a default value is accepted, so every resolved run config builds, and it changes nothing
    built, plain = build_problem(kind, 1, **{key: DEFAULTS[key] for key in unread}), build_problem(kind, 1)
    assert all(_same(b.values, p.values) for b, p in zip(built.init_blocks(1), plain.init_blocks(1)))


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_key_a_kind_reads_changes_its_problem(kind):
    base = {"noise": 1.0} if kind == "quadratic" else {}  # batch_size scales the quadratic's noise

    def outputs(**params):
        problem = build_problem(kind, 1, **{**base, **params})
        point = {b.name: b.values for b in problem.init_blocks(0)}
        loss, grads = problem.loss_and_grad(point, (1, 1))
        return [np.asarray(loss).tobytes(), *(g.tobytes() for g in grads.values())]

    assert set(KINDS[kind]) <= set(DEFAULTS)
    for key in KINDS[kind]:
        assert outputs(**{key: 2 * base.get(key, DEFAULTS[key])}) != outputs(), key


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_the_quadratic_draws_its_bowl_from_the_problem_stream(dim):
    problem = build_problem("quadratic", 9, dim=dim)
    square = dim * dim if dim > 1 else 0
    normals = Rng(9, "problem").normal(square + 2 * dim)
    x_star = normals[square : square + dim]
    assert problem.minimizer["x"].tobytes() == x_star.tobytes()
    assert problem.init_blocks(0)[0].values.tobytes() == (x_star + 2.0 * normals[square + dim :]).tobytes()


def test_batch_spec_validation():
    with pytest.raises(ContractViolationError):
        BatchSpec(batch_size=0)
    with pytest.raises(ContractViolationError):
        BatchSpec(noise_scale=-1.0)


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan])
def test_finite_difference_step_must_be_positive(h):
    problem = build_problem("quadratic", 1, dim=2, condition=1.0)
    with pytest.raises(ContractViolationError, match="h must be positive"):
        finite_difference_gradient(problem, {"x": np.zeros(2)}, (1, 1), h)


def test_finite_differences_reject_a_lane_stacked_problem():
    problem = build_problem("quadratic", (1, 2), dim=3)
    point = {"x": problem.init_blocks(0)[0].values}
    message = "finite_difference_gradient differentiates one run's problem, got one of 2 lanes"
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        finite_difference_gradient(problem, point, ((1, 2), 1), 1e-5)


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
    "quadratic": lambda: build_problem("quadratic", 7, dim=16, condition=10.0, noise=1.0, batch_size=2),
    "mlp": lambda: build_problem("mlp", 8, in_dim=4, hidden=8, classes=3, samples=50, batch_size=7),
}

# the patterns a prefetch must serve exactly as a fresh problem asked step by step
ACCESS_PATTERNS = {
    "interleaved_seeds": [(s, t) for t in range(1, 40) for s in (11, 12)],
    "backwards": [(11, t) for t in range(120, 0, -1)],
    "repeated": [(11, 1), (11, 2), (11, 3)] + [(11, 5)] * 4 + [(11, 4)],
    "jump_ahead": [(11, t) for t in range(1, 20)] + [(11, 200), (11, 201), (11, 57), (11, 300)],
    "second_run_seed": [(11, t) for t in range(1, 30)] + [(12, t) for t in range(1, 30)] + [(11, 3)],
}

def _uniforms(rng: Rng, n: int) -> np.ndarray:
    """``n`` calls of ``rng.uniform()``."""
    return np.array([rng.uniform() for _ in range(n)])


# each problem's per-step streams, by purpose, and the scalar draw that row ``t`` of run ``seed`` must equal
SCALAR_ROWS = {
    "quadratic": {"noise": lambda seed, t: Rng(seed, f"noise/{t}").normal(16)},
    "mlp": {
        "batch": lambda seed, t: Rng(seed, f"batch/{t}").indices(50, 7),
        "gnb": lambda seed, t: _uniforms(Rng(seed, f"gnb/{t}"), 7),
    },
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


def test_every_unplanned_miss_draws_one_step():
    asked = []

    def draw(seed, keys):
        asked.append(keys)
        return np.zeros((len(keys), 1))

    draws = _StepDraws("noise", 1, draw)
    for t in range(1, 32):  # consecutive steps
        draws(3, t)
    for seed, t in ((3, 100), (3, 7), (4, 101), (4, 101), (3, 101)):  # jumps, a repeat and another run seed
        draws(seed, t)
    assert asked == [[f"noise/{t}"] for t in [*range(1, 32), 100, 7, 101, 101]]
    draws.plan(3, 40)
    asked.clear()
    for t in range(41, 45):  # steps past the plan are unplanned too
        draws(3, t)
    assert asked == [[f"noise/{t}"] for t in range(41, 45)]


@pytest.mark.parametrize("planned", ["whole", "half"])
@pytest.mark.parametrize("pattern", ACCESS_PATTERNS)
@pytest.mark.parametrize("kind", PREFETCH_PROBLEMS)
def test_planned_draws_are_the_scalar_rows_in_any_access_order(kind, pattern, planned):
    calls = ACCESS_PATTERNS[pattern]
    last = max(t for _, t in calls)
    problem = PREFETCH_PROBLEMS[kind]()
    problem.draw_ahead(11, last if planned == "whole" else last // 2)  # steps past a plan are drawn one at a time
    assert [draws.purpose for draws in problem.step_draws] == list(SCALAR_ROWS[kind])
    for seed, t in calls:
        for draws in problem.step_draws:
            assert draws(seed, t).tobytes() == SCALAR_ROWS[kind][draws.purpose](seed, t).tobytes()


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
    problem = build_problem("rosenbrock", 1, dim=4)
    assert problem.step_draws == ()
    problem.draw_ahead(1, 100)


@pytest.mark.parametrize("planned", [True, False])
def test_noise_rows_are_read_only_views_of_the_scalar_stream(planned):
    problem = build_problem("quadratic", 5, dim=12, noise=1.0)
    if planned:
        problem.draw_ahead(21, 30)
    (noise,) = problem.step_draws
    for t in (1, 2, 3, 9, 30, 4):
        row = noise(21, t)
        assert row.tobytes() == Rng(21, f"noise/{t}").normal(12).tobytes()
        with pytest.raises(ValueError):
            row[0] = 0.0


# -- lane-stacked problems: lane i is the problem built at seed i alone, bit for bit ---------------------------

#: Build seeds (one at 2**64 + 3, masked as the scalar stream masks it) and the run seeds the steps draw from.
LANE_SEEDS = (5, 2**64 + 3, 11)
RUN_SEEDS = (21, 2**64 + 22, 23)

#: Odd dims carry the Box-Muller spare from the basis matrix into x* and from x* into x0's offset; the MLP's
#: 5 x 3 class means carry it into the samples' offsets.
STACKED = {
    "quadratic-1": ("quadratic", {"dim": 1, "noise": 1.0}),
    "quadratic-2": ("quadratic", {"dim": 2, "condition": 5.0, "noise": 0.5, "batch_size": 3}),
    "quadratic-7": ("quadratic", {"dim": 7, "condition": 50.0, "noise": 1.0}),
    "quadratic-32": ("quadratic", {"dim": 32, "condition": 30.0, "noise": 2.0, "batch_size": 4}),
    "quadratic-32-noiseless": ("quadratic", {"dim": 32}),
    "quadratic-64": ("quadratic", {"dim": 64, "condition": 100.0, "noise": 1.0}),  # the quad-elementwise shape
    "rosenbrock": ("rosenbrock", {"dim": 6}),
    "mlp": ("mlp", {"in_dim": 5, "hidden": 7, "classes": 3, "samples": 61, "batch_size": 9}),
}


def _same(stacked_value, single_value) -> bool:
    """Lane value and single value hold the same bytes (floats compared by their hex form)."""
    if isinstance(single_value, float):
        return float(stacked_value).hex() == single_value.hex()
    return stacked_value.tobytes() == single_value.tobytes()


@pytest.mark.parametrize("case", list(STACKED))
def test_each_lane_of_a_stacked_problem_is_its_own_problem_bit_for_bit(case):
    kind, params = STACKED[case]
    stacked = build_problem(kind, LANE_SEEDS, **params)
    singles = [build_problem(kind, seed, **params) for seed in LANE_SEEDS]
    lanes = len(LANE_SEEDS)
    assert stacked.lanes == lanes and {single.lanes for single in singles} == {0}
    assert stacked.supports_gnb == singles[0].supports_gnb
    for variant in (0, 2):
        blocks = stacked.init_blocks(variant)
        for i, single in enumerate(singles):
            alone = single.init_blocks(variant)
            assert [(b.name, b.role, b.lanes) for b in blocks] == [(b.name, b.role, lanes) for b in alone]
            assert all(_same(b.values[i], a.values) for b, a in zip(blocks, alone))
    for i, single in enumerate(singles):
        for name, values in (single.minimizer or {}).items():
            assert _same(stacked.minimizer[name][i], values)
    stacked.draw_ahead(RUN_SEEDS, 5)  # steps 1-5 from one planned block, 6 unplanned; the singles draw step by step
    point = {b.name: b.values for b in stacked.init_blocks(0)}
    gen = np.random.default_rng(len(case))
    for step in range(1, 7):
        losses, grads = stacked.loss_and_grad(point, (RUN_SEEDS, step))
        assert losses.shape == (lanes,) and losses.dtype == np.float64
        full = stacked.full_loss(point)
        resampled = stacked.gnb_grad(point, (RUN_SEEDS, step)) if stacked.supports_gnb else None
        for i, single in enumerate(singles):
            row = {name: values[i] for name, values in point.items()}
            loss, lane_grads = single.loss_and_grad(row, (RUN_SEEDS[i], step))
            single_full = single.full_loss(row)
            assert type(loss) is float and type(single_full) is float  # a numpy scalar writes its repr to record.csv
            assert _same(losses[i], loss) and _same(full[i], single_full)
            assert all(_same(grads[name][i], g) for name, g in lane_grads.items())
            if resampled is not None:
                alone = single.gnb_grad(row, (RUN_SEEDS[i], step))
                assert all(_same(resampled[name][i], g) for name, g in alone.items())
        # every lane moves on by its own step
        point = {name: values - 0.05 * np.tanh(g) for (name, values), g in zip(point.items(), grads.values())}
        point = {name: values + 0.01 * gen.standard_normal(values.shape) for name, values in point.items()}


def test_a_stacked_problem_of_one_lane_and_of_no_lane():
    one = build_problem("quadratic", [7], dim=3, noise=1.0)
    alone = build_problem("quadratic", 7, dim=3, noise=1.0)
    (block,) = one.init_blocks(0)
    assert one.lanes == 1 and block.shape == (1, 3) and _same(block.values[0], alone.init_blocks(0)[0].values)
    losses, grads = one.loss_and_grad({"x": block.values}, ((7,), 1))
    loss, single = alone.loss_and_grad({"x": block.values[0]}, (7, 1))
    assert _same(losses[0], loss) and _same(grads["x"][0], single["x"])
    assert alone.minimizer["x"].base is None  # its own values, not a view that keeps the problem stream alive
    with pytest.raises(ContractViolationError, match="a lane-stacked problem needs at least one seed"):
        build_problem("quadratic", [], dim=3)


@pytest.mark.parametrize(
    "seed", ["12", "", 1.0, 2.5, True, None, [1, "2"], [1.0], (3, None), b"12", {1, 2}], ids=repr
)
def test_a_seed_that_is_neither_an_integer_nor_a_sequence_of_integers_is_rejected(seed):
    for kind in KINDS:
        with pytest.raises(ContractViolationError, match="an integer or a non-empty sequence of integers, got "):
            build_problem(kind, seed)


@pytest.mark.parametrize("kind", KINDS)
def test_numpy_integer_seeds_build_the_problem_of_the_equal_python_seeds(kind):
    for numpy_seed, seed in ((np.int64(5), 5), ((np.int64(5), np.uint32(9)), (5, 9))):
        built, expected = build_problem(kind, numpy_seed), build_problem(kind, seed)
        blocks = built.init_blocks(1)
        assert built.lanes == expected.lanes
        assert all(_same(b.values, e.values) for b, e in zip(blocks, expected.init_blocks(1)))
        point = {b.name: b.values for b in blocks}
        loss, grads = built.loss_and_grad(point, (numpy_seed, 3))
        expected_loss, expected_grads = expected.loss_and_grad(point, (seed, 3))
        assert _same(np.asarray(loss), np.asarray(expected_loss))
        assert all(_same(grads[name], g) for name, g in expected_grads.items())


def test_stacked_step_draws_hand_each_step_every_lanes_row():
    asked = []

    def draw(seeds, keys):  # rng's grid: entry [i, k] for seed i and key k
        asked.append((seeds, keys))
        return np.array([[[float(s), float(k.split("/")[1])] for k in keys] for s in seeds])

    draws = _StepDraws("noise", 2, draw, lanes=2)
    draws.plan((4, 9), 3)
    views = [draws((4, 9), t) for t in (1, 2, 3, 4)]
    assert asked == [((4, 9), ["noise/1", "noise/2", "noise/3"]), ((4, 9), ["noise/4"])]
    for t, view in enumerate(views, start=1):
        assert view.tolist() == [[4.0, t], [9.0, t]] and not view.flags.writeable


@pytest.mark.parametrize(
    "kind,params", [("quadratic", {"dim": 4, "noise": 1.0}), ("mlp", {"samples": 16, "batch_size": 4})], ids=str
)
def test_a_batch_seed_must_have_the_problems_lane_count(kind, params):
    # a lane-stacked problem handed one int, or too many seeds, and a one-run problem handed a tuple
    for seeds, run_seed, given in (((1, 2), 1, 0), ((1, 2), (1, 2, 3), 3), (1, (1, 2), 2), ((5,), 5, 0)):
        problem = build_problem(kind, seeds, **params)
        point = {b.name: b.values for b in problem.init_blocks(0)}
        message = f"a problem of {problem.lanes} lanes (0: one run) got {given}: {run_seed!r}"
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            problem.loss_and_grad(point, (run_seed, 1))
        problem.draw_ahead(run_seed, 5)  # a planned miss checks as well
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            problem.loss_and_grad(point, (run_seed, 2))
        # the right seed still draws, after the rejected ones
        problem.loss_and_grad(point, (seeds, 1))
