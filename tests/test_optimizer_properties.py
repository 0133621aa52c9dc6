"""Cross-cutting optimizer invariants: oracle equivalence, routing, state safety."""

import pickle

import numpy as np
import pytest

import optlab.optimizers as opts
import optlab.verify as verify
from optlab.blocks import ParamBlock
from optlab.errors import ContractViolationError, PoisonedStateError
from optlab.optimizers.engine import OPTIMIZERS, make_optimizer
from optlab.rng import Rng


@pytest.mark.parametrize("check", verify.ORACLE_CHECKS, ids=lambda c: c.__name__)
def test_scalar_oracle_equivalence(check):
    result = check()
    assert result.passed, result.detail


def test_soap_identity_reduction():
    result = verify.check_soap_identity_reduction()
    assert result.passed, result.detail


def test_sign_scale_invariance():
    result = verify.check_sign_scale_invariance()
    assert result.passed, result.detail


def test_prodigy_adaptation():
    result = verify.check_prodigy_adaptation()
    assert result.passed, result.detail


def test_sf_convex_combination():
    result = verify.check_sf_convex_combination()
    assert result.passed, result.detail


def test_zero_grad_fixed_points():
    result = verify.check_zero_grad_fixed_points()
    assert result.passed, result.detail


def test_muon_wd_independence():
    result = verify.check_muon_wd_independence()
    assert result.passed, result.detail


def _blocks():
    r = Rng(77, "engine-blocks")
    return [
        ParamBlock("w", r.normal_matrix(4, 3), role="matrix"),
        ParamBlock("emb", r.normal_matrix(5, 2), role="embedding"),
        ParamBlock("b", r.normal(3), role="vector"),
    ]


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_engines_step_all_roles(name):
    blocks = _blocks()
    engine = make_optimizer(name, blocks, total_steps=50, params={})
    r = Rng(78, f"engine-grads/{name}")
    for t in range(5):
        point = engine.eval_point()
        assert set(point) == {"w", "emb", "b"}
        grads = {b.name: r.normal(b.size).reshape(b.shape) for b in blocks}
        resampled = None
        batch = None
        if engine.wants_estimate():
            resampled = {b.name: r.normal(b.size).reshape(b.shape) for b in blocks}
            batch = 8
        info = engine.step(grads, 0.5, resampled, batch)
        assert np.isfinite(info.update_norm)
        assert info.effective_lr > 0.0
    for b in blocks:
        assert np.all(np.isfinite(b.values))


@pytest.mark.parametrize("name", ["muon", "dmuon", "soap", "mars-shampoo"])
def test_matrix_rules_reject_matrix_blocks_beyond_2d(name):
    # rejected when the block is built, so no rule ever sees it
    with pytest.raises(ContractViolationError, match="exactly 2 dimensions"):
        make_optimizer(name, [ParamBlock("w", np.zeros((2, 3, 4)), role="matrix")], 10, {})


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_engines_poison_on_nonfinite_gradient(name):
    blocks = _blocks()
    engine = make_optimizer(name, blocks, total_steps=10, params={})
    grads = {b.name: np.zeros(b.shape) for b in blocks}
    grads["b"] = np.array([np.inf, 0.0, 0.0])
    resampled = {b.name: np.zeros(b.shape) for b in blocks} if engine.wants_estimate() else None
    with pytest.raises(PoisonedStateError):
        engine.step(grads, 1.0, resampled, 4)


@pytest.mark.filterwarnings("ignore:overflow")
def test_states_overflow_aborts_instead_of_propagating():
    from optlab.blocks import CommonHyper

    block = ParamBlock("x", np.zeros(2))
    state = opts.AdamLikeState.zeros(2)
    huge = np.array([1e300, 1e300])  # finite, but g*g overflows the second moment
    with pytest.raises(PoisonedStateError):
        opts.adamw_step(block, huge, state, CommonHyper(1e-3, 0.0))


def test_engine_states_are_picklable():
    blocks = _blocks()
    for name in ("adamw", "soap", "prodigy", "sf-adamw", "mars-shampoo"):
        engine = make_optimizer(name, blocks, total_steps=10, params={})
        r = Rng(79, f"pickle/{name}")
        grads = {b.name: r.normal(b.size).reshape(b.shape) for b in blocks}
        resampled = {b.name: r.normal(b.size).reshape(b.shape) for b in blocks} if engine.wants_estimate() else None
        engine.step(grads, 1.0, resampled, 4)
        state_attr = getattr(engine, "states", None) or getattr(engine, "state")
        blob = pickle.dumps(state_attr)
        assert pickle.loads(blob) is not None


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_make_optimizer_rejects_unknowns(name):
    from optlab.config import OPTIMIZER_KEYS
    from optlab.errors import ConfigurationError

    blocks = _blocks()
    with pytest.raises(ConfigurationError, match="valid names"):
        make_optimizer("sgd", blocks, 10, {})
    # a real config key that this rule does not take
    key = next(k for k in OPTIMIZER_KEYS if k not in OPTIMIZERS[name].defaults)
    with pytest.raises(ConfigurationError, match=f"{name!r} takes no hyperparameter {key!r}; it accepts: lr, "):
        make_optimizer(name, blocks, 10, {key: 0.5})
