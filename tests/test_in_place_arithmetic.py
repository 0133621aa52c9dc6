"""The in-place forms of the update arithmetic against the expressions they replaced.

Every comparison is on bytes (and, for Newton-Schulz, strides), not on a
tolerance, and none is keyed to a numpy or BLAS build: each side runs on the
build at hand. The last group checks that no step writes into an array it was
handed, and that every step updates its state buffers and parameters in place.
"""

import dataclasses
import math

import numpy as np
import pytest

from optlab.blocks import CommonHyper, ParamBlock
from optlab.linalg import as_matrix, frobenius_norm
from optlab.optimizers import base, muon, prodigy, schedule_free, sign, soap
from optlab.optimizers.engine import OPTIMIZER_NAMES, make_optimizer
from optlab.problems import build_problem
from optlab.rng import Rng
from optlab.schedules import EmaScheduleSpec, ademamix_alpha_at, ademamix_beta3_at


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


# --- the other rules, each against the expressions it replaced ---------------------
#
# Each ``_*_expression`` is a rule as it read when it rebound its state to fresh
# arrays, one expression per line. A run yields, per step, the bytes of the
# increment, the parameters and every state buffer.

HYPER = CommonHyper(0.003, 0.01, 1e-8)
EMA = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=3, t_beta3=3)


def _snap(*arrays):
    return tuple(np.asarray(a).tobytes() for a in arrays)


def _commit(x, direction, gamma, lam):
    """``decoupled_update``'s increment and new parameters, as an expression."""
    delta = -gamma * (direction + lam * x)
    return delta, x + delta


def _run_rule(step, state, x, grads):
    block, out = ParamBlock("w", x.copy()), []
    for g in grads:
        delta = step(block, g, state)
        buffers = (getattr(state, f.name) for f in dataclasses.fields(state))
        out.append(_snap(delta, block.values, *(b for b in buffers if isinstance(b, np.ndarray))))
    return out


def _adopt(x, grads):
    state = base.AdoptState.zeros(x.shape)
    base.adopt_init(state, grads[0])
    step = lambda b, g, st: base.adopt_step(b, g, st, HYPER, 0.9, 0.999)  # noqa: E731
    return [_snap(state.v)] + _run_rule(step, state, x, grads[1:])


def _adopt_expression(x, grads):
    m, v = np.zeros(x.shape), grads[0] * grads[0]
    out = [_snap(v)]
    for t, g in enumerate(grads[1:], 1):
        c = t**0.25
        ratio = g / np.maximum(np.sqrt(v), HYPER.eps)
        m = 0.9 * m + (1.0 - 0.9) * np.clip(ratio, -c, c)
        v = 0.999 * v + (1.0 - 0.999) * g * g
        delta, x = _commit(x, m, HYPER.gamma, HYPER.lam)
        out.append(_snap(delta, x, m, v))
    return out


def _ademamix(x, grads):
    step = lambda b, g, st: base.ademamix_step(b, g, st, HYPER, EMA, 0.9, 0.999)  # noqa: E731
    return _run_rule(step, base.AdemamixState.zeros(x.shape), x, grads)


def _ademamix_expression(x, grads):
    m = m_slow = v = np.zeros(x.shape)
    out = []
    for t, g in enumerate(grads, 1):
        alpha_t, beta3_t = ademamix_alpha_at(EMA, t), ademamix_beta3_at(EMA, t)
        m = 0.9 * m + (1.0 - 0.9) * g
        m_slow = beta3_t * m_slow + (1.0 - beta3_t) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        direction = (m / (1.0 - 0.9**t) + alpha_t * m_slow) / (np.sqrt(v / (1.0 - 0.999**t)) + HYPER.eps)
        delta, x = _commit(x, direction, HYPER.gamma, HYPER.lam)
        out.append(_snap(delta, x, m, m_slow, v))
    return out


def _lion(x, grads):
    step = lambda b, g, st: sign.lion_step(b, g, st, HYPER, 0.9, 0.99)  # noqa: E731
    return _run_rule(step, sign.SignState.zeros(x.shape), x, grads)


def _lion_expression(x, grads):
    m, out = np.zeros(x.shape), []
    for g in grads:
        direction = np.sign(0.9 * m + (1.0 - 0.9) * g)
        m = 0.99 * m + (1.0 - 0.99) * g
        delta, x = _commit(x, direction, HYPER.gamma, HYPER.lam)
        out.append(_snap(delta, x, m))
    return out


def _soap(x, grads):
    """SOAP without bias correction; the first gradient seeds the bases, which then stay (no refresh)."""
    block = ParamBlock("w", x.copy())
    state = soap.SoapState.for_block(block, precond_freq=None, bias_correction=False)
    soap.soap_step(block, grads[0], state, HYPER)
    out = []
    for g in grads[1:]:
        delta = soap.soap_step(block, g, state, HYPER, 0.9, 0.999)
        out.append(_snap(delta, block.values, state.m, state.v, state.l_stat, state.r_stat))
    return out, state.q_l, state.q_r


def _soap_expression(x, grads, q_l, q_r):
    m = v = np.zeros(x.shape)
    l_stat, r_stat = np.zeros((x.shape[0],) * 2), np.zeros((x.shape[1],) * 2)
    out = []
    for g in grads[1:]:
        g_rot = q_l.T @ g @ q_r
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g_rot * g_rot
        update = q_l @ ((q_l.T @ m @ q_r) / (np.sqrt(v) + HYPER.eps)) @ q_r.T
        l_stat = 0.999 * l_stat + (1.0 - 0.999) * (g @ g.T)
        r_stat = 0.999 * r_stat + (1.0 - 0.999) * (g.T @ g)
        delta, x = _commit(x, update, HYPER.gamma, HYPER.lam)
        out.append(_snap(delta, x, m, v, l_stat, r_stat))
    return out


def _group_snap(deltas, blocks, *buffers):
    return tuple(_snap(deltas[b.name], b.values, *(buf[b.name] for buf in buffers)) for b in blocks)


#: a d0 at which ``(1 - beta2) * d * d`` and ``(1 - beta2) * (d * d)`` round apart (at 1e-6 they do not)
PRODIGY_D0 = 0.013


def _prodigy(xs, grads):
    blocks = [ParamBlock(f"w{i}", x.copy()) for i, x in enumerate(xs)]
    state, out = prodigy.ProdigyState.for_blocks(blocks, PRODIGY_D0), []
    for gs in grads:
        named = {b.name: g for b, g in zip(blocks, gs)}
        deltas, eff_lr = prodigy.prodigy_step(blocks, named, state, CommonHyper(1.0, 0.01, 1e-8), 0.9, 0.999)
        out.append((_group_snap(deltas, blocks, state.m, state.v, state.s), repr((eff_lr, state.r, state.d))))
    return out


def _prodigy_expression(xs, grads):
    x0, lam, eps, b1, b2 = [x.copy() for x in xs], 0.01, 1e-8, 0.9, 0.999
    m, v, s = ([np.zeros(x.shape) for x in xs] for _ in range(3))
    d, r, out = PRODIGY_D0, 0.0, []
    for t, gs in enumerate(grads, 1):
        gamma_t = 1.0 * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        sqb2 = math.sqrt(b2)
        dot = 0.0
        for i, g in enumerate(gs):
            dot += float(np.add.reduce(g * (x0[i] - xs[i]), axis=None))
            m[i] = b1 * m[i] + (1.0 - b1) * d * g
            v[i] = b2 * v[i] + (1.0 - b2) * d * d * g * g
        r = sqb2 * r + (1.0 - sqb2) * gamma_t * d * d * dot
        s_norm1 = 0.0
        for i, g in enumerate(gs):
            s[i] = sqb2 * s[i] + (1.0 - sqb2) * gamma_t * d * d * g
            s_norm1 += float(np.add.reduce(np.abs(s[i]), axis=None))
        d_next = max(d, r / s_norm1) if s_norm1 > 0.0 else d
        snaps = []
        for i in range(len(xs)):
            delta, xs[i] = _commit(xs[i], m[i] / (np.sqrt(v[i]) + d * eps), gamma_t * d, lam)
            snaps.append(_snap(delta, xs[i], m[i], v[i], s[i]))
        out.append((tuple(snaps), repr((gamma_t * d, r, d_next))))
        d = d_next
    return out


def _sfadamw(xs, grads):
    blocks = [ParamBlock(f"w{i}", x.copy()) for i, x in enumerate(xs)]
    state, out = schedule_free.ScheduleFreeState.for_blocks(blocks, 2), []
    for gs in grads:
        named = {b.name: g for b, g in zip(blocks, gs)}
        deltas = schedule_free.sfadamw_step(blocks, named, state, HYPER, 0.9, 0.999)
        out.append((_group_snap(deltas, blocks, state.z, state.v), repr(state.lr_sq_sum)))
    return out


def _sfadamw_expression(xs, grads):
    z, v = [x.copy() for x in xs], [np.zeros(x.shape) for x in xs]
    b1, b2, lr_sq_sum, out = 0.9, 0.999, 0.0, []
    for t, gs in enumerate(grads, 1):
        gamma_t = HYPER.gamma * math.sqrt(1.0 - b2**t) * min(1.0, t / 2)
        lr_sq_sum += gamma_t * gamma_t
        c = gamma_t * gamma_t / lr_sq_sum
        snaps = []
        for i, g in enumerate(gs):
            y = (1.0 - b1) * z[i] + b1 * xs[i]
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            z[i] = z[i] - gamma_t * (g / (np.sqrt(v[i]) + HYPER.eps) + HYPER.lam * y)
            new_x = (1.0 - c) * xs[i] + c * z[i]
            delta, xs[i] = new_x - xs[i], new_x
            snaps.append(_snap(delta, xs[i], z[i], v[i]))
        out.append((tuple(snaps), repr(lr_sq_sum)))
    return out


SIGNUM_FORMS = {"nesterov": (0.95, True, 0.0), "plain": (0.95, False, 0.0), "dampened": (0.9, False, 0.9)}


def _signum(x, grads, beta, nesterov, dampening):
    step = lambda b, g, st: sign.signum_step(b, g, st, HYPER, beta, nesterov, dampening)  # noqa: E731
    return _run_rule(step, sign.SignState.zeros(x.shape), x, grads)


def _signum_expression(x, grads, beta, nesterov, dampening):
    m, out = np.zeros(x.shape), []
    for g in grads:
        m = beta * m + (1.0 - dampening) * g
        direction = np.sign(g + beta * m) if nesterov else np.sign(m)
        delta, x = _commit(x, direction, HYPER.gamma, HYPER.lam)
        out.append(_snap(delta, x, m))
    return out


SHAPES = [(64,), (16, 24)]
BLOCK_RULES = {"adopt": (_adopt, _adopt_expression), "ademamix": (_ademamix, _ademamix_expression),
               "lion": (_lion, _lion_expression)}
GROUP_RULES = {"prodigy": (_prodigy, _prodigy_expression), "sf-adamw": (_sfadamw, _sfadamw_expression)}


def _grads(shape, steps=4):
    return [_normal(30 + t, *shape) for t in range(steps)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("rule", BLOCK_RULES)
def test_block_rule_matches_its_expressions_over_steps(rule, shape):
    ours, expression = BLOCK_RULES[rule]
    x, grads = _normal(20, *shape), _grads(shape)
    assert ours(x, grads) == expression(x, grads)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("form", SIGNUM_FORMS)
def test_signum_matches_its_expressions_over_steps(form, shape):
    x, grads = _normal(20, *shape), _grads(shape)
    assert _signum(x, grads, *SIGNUM_FORMS[form]) == _signum_expression(x, grads, *SIGNUM_FORMS[form])


@pytest.mark.parametrize("shapes", [[(64,)], [(16, 24)], [(64,), (16, 24)]], ids=str)
@pytest.mark.parametrize("rule", GROUP_RULES)
def test_group_rule_matches_its_expressions_over_steps(rule, shapes):
    ours, expression = GROUP_RULES[rule]
    xs = [_normal(20 + i, *shape) for i, shape in enumerate(shapes)]
    per_block = [_grads(shape) for shape in shapes]
    grads = [list(step) for step in zip(*per_block)]
    assert ours([x.copy() for x in xs], grads) == expression([x.copy() for x in xs], grads)


@pytest.mark.parametrize("shape", [(16, 24), (24, 16)], ids=str)
def test_soap_without_bias_correction_matches_its_expressions_over_steps(shape):
    x, grads = _normal(20, *shape), _grads(shape)
    got, q_l, q_r = _soap(x, grads)
    assert got == _soap_expression(x, grads, q_l, q_r)


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


# --- nothing handed to a step is written; every buffer is updated in place -----


SMALL_MLP = {"in_dim": 6, "hidden": 12, "classes": 3, "samples": 64, "batch_size": 16}


def _mlp_engine(name):
    problem = build_problem("mlp", 3, **SMALL_MLP)
    params = {"lr": 1e-3, **({"estimator_freq": 1} if name == "sophia" else {})}
    return problem, make_optimizer(name, problem.init_blocks(0), 10, params)


def _step(problem, engine, step):
    """One engine step on the MLP; returns the gradients it was handed and copies of them taken before."""
    point = engine.eval_point()
    _, grads = problem.loss_and_grad(point, (7, step))
    resampled = problem.gnb_grad(point, (7, step)) if engine.needs_gnb else None
    handed = [grads] + ([resampled] if resampled is not None else [])
    before = [{k: v.copy() for k, v in g.items()} for g in handed]
    engine.step(grads, 1.0, resampled, SMALL_MLP["batch_size"])
    return handed, before


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_engine_steps_leave_every_gradient_array_unchanged(name):
    problem, engine = _mlp_engine(name)
    for step in range(1, 4):
        handed, before = _step(problem, engine, step)
        for g, kept in zip(handed, before):
            assert all(_same(g[k], kept[k]) for k in g), f"{name} wrote into a gradient at step {step}"


def _live_arrays(engine):
    """Every ndarray of the engine's blocks and states, by where it sits; SOAP's bases are left out."""
    found = {f"{b.name}.values": b.values for b in engine.blocks}
    states = {**getattr(engine, "states", {}), **getattr(engine, "adam_states", {})}
    if hasattr(engine, "state"):
        states["group"] = engine.state
    for owner, state in states.items():
        for field in dataclasses.fields(state):
            if field.name in ("q_l", "q_r"):  # SOAP replaces its bases when it seeds and refreshes them
                continue
            value = getattr(state, field.name)
            for key, arr in (value.items() if isinstance(value, dict) else [("", value)]):
                if isinstance(arr, np.ndarray):
                    found[f"{owner}.{field.name}/{key}"] = arr
    return found


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_engine_steps_update_every_state_buffer_and_block_in_place(name):
    problem, engine = _mlp_engine(name)
    first = _live_arrays(engine)
    for step in range(1, 4):
        _step(problem, engine, step)
        now = _live_arrays(engine)
        assert now.keys() == first.keys()
        replaced = sorted(k for k in first if now[k] is not first[k])
        assert not replaced, f"{name} replaced {replaced} at step {step}"
