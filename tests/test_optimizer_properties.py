"""Cross-cutting optimizer invariants: oracle equivalence, routing, state safety."""

import math
import pickle
import warnings

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


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_engines_step_all_zero_gradients(name):
    # muon, dmuon and mars-shampoo skip Newton-Schulz on an all-zero momentum, so no rule raises here;
    # sf-adamw's averaging of its two sequences moves the parameters by rounding
    r = Rng(80, "zero-grads")
    blocks = [ParamBlock("w", r.normal_matrix(4, 3), role="matrix"), ParamBlock("b", r.normal(3))]
    start = [b.values.copy() for b in blocks]
    engine = make_optimizer(name, blocks, total_steps=10, params={})
    zeros = {b.name: np.zeros(b.shape) for b in blocks}
    for _ in range(3):
        engine.step(zeros, 1.0, zeros if engine.wants_estimate() else None, 4)
    for block, values in zip(blocks, start):
        assert np.all(np.isfinite(block.values))
        if name != "sf-adamw":
            assert block.values.tobytes() == values.tobytes(), block.name


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


_STRIDED = np.arange(12.0)
_STRIDED[4] = np.nan
_READ_ONLY_ROWS = np.arange(48.0).reshape(3, 16)
_READ_ONLY_ROWS.setflags(write=False)  # as Problem.step_draws hands out its rows
FINITE_CASES = {
    "finite": np.array([1.0, -2.0, 0.0]),
    "nan": np.array([1.0, np.nan]),
    "+inf": np.array([np.inf, 1.0]),
    "-inf": np.array([1.0, -np.inf]),
    "mixed inf": np.array([np.inf, -np.inf]),
    "huge finite": np.array([1e308, 1e308]),
    "empty": np.array([]),
    "0-d finite": np.array(2.5),
    "0-d nan": np.array(np.nan),
    "2-D finite": np.arange(12.0).reshape(3, 4),
    "2-D inf": np.where(np.arange(12).reshape(3, 4) == 7, np.inf, 1.0),
    "strided finite": _STRIDED[1::4],
    "strided nan": _STRIDED[::4],
    "long, nan last": np.append(np.ones(8200), np.nan),
    "Fortran 2-D inf": np.asfortranarray(np.where(np.arange(12).reshape(3, 4) == 5, np.inf, 1.0)),
    "3-D nan": np.where(np.arange(24).reshape(2, 3, 4) == 17, np.nan, 1.0),
    "read-only row": _READ_ONLY_ROWS[1],
}


@pytest.mark.parametrize("case", FINITE_CASES)
def test_all_finite_agrees_with_isfinite_all_and_warns_nothing(case):
    from optlab.optimizers.base import all_finite

    a = FINITE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(a) is bool(np.isfinite(a).all())


_STRIDED_FINITE = np.arange(1.0, 13.0) / 7.0
NORM_CASES = {
    "python float": 3.7,
    "list": [1.5, -2.25, 1e-3],
    "0-d": np.array(-0.3),
    "strided": _STRIDED_FINITE[1::3],
    "2-D": _STRIDED_FINITE.reshape(3, 4) - 0.9,
}


@pytest.mark.parametrize("case", [*NORM_CASES, "all"])
def test_global_norm_is_the_root_of_the_summed_squares(case):
    from optlab.blocks import global_norm

    arrays = list(NORM_CASES.values()) if case == "all" else [NORM_CASES[case]]
    total = sum(float(np.add.reduce(np.asarray(a) * np.asarray(a), axis=None)) for a in arrays)
    norm = global_norm(arrays)
    assert type(norm) is float
    assert norm.hex() == math.sqrt(total).hex()
