"""The in-place forms of the update arithmetic against the expressions they replaced.

Every comparison is on bytes (and, for Newton-Schulz, strides), not on a
tolerance, and none is keyed to a numpy or BLAS build: each side runs on the
build at hand. The last group checks that no step writes into an array it was
handed.
"""

import numpy as np
import pytest

from optlab.blocks import CommonHyper, ParamBlock
from optlab.linalg import as_matrix, frobenius_norm
from optlab.optimizers import base, muon
from optlab.optimizers.engine import OPTIMIZER_NAMES, make_optimizer
from optlab.problems import build_problem
from optlab.rng import Rng


def _normal(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# --- Newton-Schulz -------------------------------------------------------------


def _ns_expression(g, iters=muon.NS_ITERS, coeffs=muon.NS_COEFFS):
    """The quintic iteration as one expression per step, as it read before it worked in place."""
    g = as_matrix(g)
    a, b, c = coeffs
    x = g / frobenius_norm(g)
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for _ in range(iters):
        s = x @ x.T
        y = s @ x
        x = a * x + b * y + c * (s @ y)
    return x.T if transposed else x


NS_SHAPES = [(17, 300), (64, 256), (3, 7), (300, 17), (256, 64), (9, 2), (32, 32), (5, 5), (1, 1)]


@pytest.mark.parametrize("shape", NS_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("seed", range(4))
def test_newton_schulz_gives_the_expressions_bytes_and_strides(shape, seed):
    g = _normal(seed, *shape)
    before = g.copy()
    got = muon.newton_schulz_orthogonalize(g)
    want = _ns_expression(g)
    assert _same(got, want)
    assert got.strides == want.strides
    assert _same(g, before)


def test_newton_schulz_with_other_coefficients_and_iterations():
    g = _normal(7, 300, 17)
    for iters, coeffs in ((1, (1.5, -0.5, 0.0)), (3, (2.0, -1.5, 0.5))):
        got = muon.newton_schulz_orthogonalize(g, iters, coeffs)
        want = _ns_expression(g, iters, coeffs)
        assert _same(got, want) and got.strides == want.strides


# --- EMA, decoupled update, AdamW direction -------------------------------------


@pytest.mark.parametrize("shape", [(1,), (64,), (8, 5), (64, 256)], ids=str)
@pytest.mark.parametrize("beta", [0.9, 0.95, 0.999, 0.0])
@pytest.mark.parametrize("squared", [False, True], ids=["x", "x*y"])
def test_ema_update_rounds_as_the_expression(shape, beta, squared):
    buf, x = _normal(1, *shape), _normal(2, *shape)
    y = _normal(3, *shape) if squared else None
    want = beta * buf + (1.0 - beta) * x * y if squared else beta * buf + (1.0 - beta) * x
    x_before = x.copy()
    base.ema_update(buf, beta, x, y)
    assert _same(buf, want)
    assert _same(x, x_before)


@pytest.mark.parametrize("shape", [(1,), (64,), (64, 256)], ids=str)
@pytest.mark.parametrize("gamma,lam", [(0.003, 0.0), (0.05, 0.1), (1e-7, 3.0)])
def test_decoupled_update_rounds_as_the_expression_and_only_reads_direction(shape, gamma, lam):
    x, direction = _normal(4, *shape), _normal(5, *shape)
    direction_before = direction.copy()
    want = -gamma * (direction + lam * x)
    block = ParamBlock("x", x.copy())
    delta = base.decoupled_update(block, direction, gamma, lam, "test")
    assert _same(delta, want)
    assert _same(block.values, x + want)
    assert _same(direction, direction_before)


def _adamw_expression(x, grad, m, v, t, hyper, beta1, beta2):
    """AdamW as one expression per line: the returned increment, m and v."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    direction = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + hyper.eps)
    return -hyper.gamma * (direction + hyper.lam * x), m, v


@pytest.mark.parametrize("shape", [(64,), (64, 256)], ids=str)
def test_adamw_step_matches_the_expression_over_steps(shape):
    hyper = CommonHyper(0.003, 0.01, 1e-8)
    block = ParamBlock("w", _normal(6, *shape))
    state = base.AdamLikeState.zeros(shape)
    x, m, v = block.values.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 4):
        grad = _normal(10 + t, *shape)
        delta = base.adamw_step(block, grad, state, hyper, 0.9, 0.999)
        want, m, v = _adamw_expression(x, grad, m, v, t, hyper, 0.9, 0.999)
        x = x + want
        assert _same(delta, want) and _same(state.m, m) and _same(state.v, v) and _same(block.values, x)


# --- the MLP's forward and backward ---------------------------------------------


def _mlp_expression(in_dim, hidden, classes, samples, batch_size, seed):
    """The MLP's loss, gradient, GNB gradient and full loss as they read before they worked in place.

    The data and the per-step draws are rebuilt from the streams the problem
    documents: ``Rng(seed, "problem")`` for the clusters, ``batch/{step}`` and
    ``gnb/{step}`` for a step.
    """
    rng = Rng(seed, "problem")
    means = 2.0 * rng.normal_matrix(classes, in_dim)
    labels = np.arange(samples, dtype=np.int64) % classes
    data = means[labels] + rng.normal_matrix(samples, in_dim)

    def forward(params, x):
        h = np.tanh(x @ params["w1"] + params["b1"])
        logits = h @ params["w2"] + params["b2"]
        return h, logits - logits.max(axis=1, keepdims=True)

    def softmax(shifted):
        expl = np.exp(shifted)
        return expl / expl.sum(axis=1, keepdims=True)

    def loss(shifted, y):
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        return float(np.mean(logz - shifted[np.arange(len(y)), y]))

    def grads(params, x, y, h, probs):
        n = x.shape[0]
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dh = dlogits @ params["w2"].T
        dz1 = dh * (1.0 - h * h)
        return {"w1": x.T @ dz1, "b1": dz1.sum(axis=0), "w2": h.T @ dlogits, "b2": dlogits.sum(axis=0)}

    def batch(batch_seed):
        run_seed, step = batch_seed
        idx = Rng(run_seed, f"batch/{step}").indices(samples, batch_size)
        return data[idx], labels[idx]

    def loss_and_grad(params, batch_seed):
        x, y = batch(batch_seed)
        h, shifted = forward(params, x)
        return loss(shifted, y), grads(params, x, y, h, softmax(shifted))

    def resampled_grad(params, batch_seed):
        x, _ = batch(batch_seed)
        h, shifted = forward(params, x)
        probs = softmax(shifted)
        run_seed, step = batch_seed
        r = Rng(run_seed, f"gnb/{step}")
        cdf = np.cumsum(probs, axis=1)
        draws = np.array([r.uniform() for _ in range(x.shape[0])])
        sampled = np.minimum((draws[:, None] > cdf).sum(axis=1), classes - 1).astype(np.int64)
        return grads(params, x, sampled, h, probs)

    def full_loss(params):
        return loss(forward(params, data)[1], labels)

    return loss_and_grad, resampled_grad, full_loss


MLP_SIZES = {
    "perfbench": {"in_dim": 64, "hidden": 256, "classes": 10, "samples": 1024, "batch_size": 64},
    "pins": {"in_dim": 6, "hidden": 9, "classes": 3, "samples": 128, "batch_size": 16},
}


@pytest.mark.parametrize("size", MLP_SIZES, ids=str)
def test_mlp_loss_and_gradients_give_the_expressions_bytes(size):
    dims = MLP_SIZES[size]
    problem = build_problem("mlp", 5, **dims)
    loss_and_grad, resampled_grad, full_loss = _mlp_expression(**dims, seed=5)
    for variant in (0, 1):
        params = {b.name: b.values for b in problem.init_blocks(variant)}
        before = {k: v.copy() for k, v in params.items()}
        for batch_seed in ((11, 1), (11, 2), (12, 40)):
            loss, grads = problem.loss_and_grad(params, batch_seed)
            want_loss, want_grads = loss_and_grad(params, batch_seed)
            assert repr(loss) == repr(want_loss)
            assert grads.keys() == want_grads.keys()
            assert all(_same(grads[k], want_grads[k]) for k in grads)
            gnb, want_gnb = problem.gnb_grad(params, batch_seed), resampled_grad(params, batch_seed)
            assert all(_same(gnb[k], want_gnb[k]) for k in gnb)
        assert repr(problem.full_loss(params)) == repr(full_loss(params))
        assert all(_same(params[k], before[k]) for k in params)


# --- nothing handed to a step is written --------------------------------------


SMALL_MLP = {"in_dim": 6, "hidden": 12, "classes": 3, "samples": 64, "batch_size": 16}


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_engine_steps_leave_every_gradient_array_unchanged(name):
    problem = build_problem("mlp", 3, **SMALL_MLP)
    blocks = problem.init_blocks(0)
    params = {"lr": 1e-3, **({"estimator_freq": 1} if name == "sophia" else {})}
    engine = make_optimizer(name, blocks, 10, params)
    for step in range(1, 4):
        point = engine.eval_point()
        _, grads = problem.loss_and_grad(point, (7, step))
        resampled = problem.gnb_grad(point, (7, step)) if engine.needs_gnb else None
        handed = [grads] + ([resampled] if resampled is not None else [])
        before = [{k: v.copy() for k, v in g.items()} for g in handed]
        engine.step(grads, 1.0, resampled, SMALL_MLP["batch_size"])
        for g, kept in zip(handed, before):
            assert all(_same(g[k], kept[k]) for k in g), f"{name} wrote into a gradient at step {step}"
