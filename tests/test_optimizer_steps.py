"""Single-step behavior of each update rule against hand-worked values."""

import math

import numpy as np
import pytest

import optlab.optimizers as opts
from optlab.blocks import CommonHyper, ParamBlock
from optlab.errors import ContractViolationError, PoisonedStateError
from optlab.optimizers import base, mars, muon, prodigy, sign, soap, sophia
from optlab.optimizers.engine import OPTIMIZER_NAMES, OPTIMIZERS, Mars, Muon, Soap, make_optimizer
from optlab.schedules import EmaScheduleSpec

H = CommonHyper(0.1, 0.0)


def scalar_block(x0=0.0):
    return ParamBlock("x", np.array([x0]))


@pytest.mark.parametrize("gamma", [-1e-3, math.nan, math.inf])
def test_common_hyper_rejects_gamma_not_finite_and_nonnegative(gamma):
    with pytest.raises(ContractViolationError, match="gamma must be finite and >= 0, got"):
        CommonHyper(gamma)
    assert CommonHyper(0.0).gamma == 0.0


class TestAdamW:
    def test_zero_gradient_no_motion(self):
        block = scalar_block(1.5)
        state = opts.AdamLikeState.zeros(1)
        opts.adamw_step(block, np.zeros(1), state, H)
        assert block.values[0] == 1.5

    def test_first_step_is_signed_lr(self):
        # bias correction makes step 1 ~ -gamma * sign(g)
        block = scalar_block(0.0)
        state = opts.AdamLikeState.zeros(1)
        opts.adamw_step(block, np.array([2.0]), state, CommonHyper(0.1, 0.0, 1e-8))
        assert block.values[0] == pytest.approx(-0.1, abs=1e-8)

    def test_nonfinite_gradient_poisons(self):
        block = scalar_block()
        state = opts.AdamLikeState.zeros(1)
        with pytest.raises(PoisonedStateError):
            opts.adamw_step(block, np.array([np.nan]), state, H)

    def test_beta_validation(self):
        block = scalar_block()
        state = opts.AdamLikeState.zeros(1)
        with pytest.raises(ContractViolationError):
            opts.adamw_step(block, np.ones(1), state, H, beta1=1.0)


class TestAdopt:
    def test_init_consumes_then_first_move(self):
        block = scalar_block(0.0)
        state = opts.AdoptState.zeros(1)
        opts.adopt_init(state, np.array([1.0]))
        assert block.values[0] == 0.0
        opts.adopt_step(block, np.array([1.0]), state, CommonHyper(0.1, 0.0, 1e-6))
        assert state.m[0] == pytest.approx(0.1, abs=1e-15)
        assert block.values[0] == pytest.approx(-0.01, abs=1e-15)

    def test_clamp_bound_at_t16(self):
        # t^(1/4) = 2 at t = 16, so a ratio of 5 clamps to 2
        block = scalar_block(0.0)
        state = opts.AdoptState(m=np.zeros(1), v=np.ones(1), t=15, v_ready=True)
        opts.adopt_step(block, np.array([5.0]), state, CommonHyper(0.1, 0.0, 1e-6), beta1=0.5)
        assert state.m[0] == pytest.approx(1.0, abs=1e-15)  # 0.5 * clamp(5, 2)

    def test_step_before_init_rejected(self):
        state = opts.AdoptState.zeros(1)
        with pytest.raises(ContractViolationError):
            opts.adopt_step(scalar_block(), np.ones(1), state, H)


class TestAdemamix:
    def test_early_steps_close_to_adamw(self):
        ema = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=10**6, t_beta3=10**6)
        g = np.array([0.7, -1.2, 0.1])
        b1 = ParamBlock("a", np.zeros(3))
        b2 = ParamBlock("b", np.zeros(3))
        s1 = opts.AdemamixState.zeros(3)
        s2 = opts.AdamLikeState.zeros(3)
        opts.ademamix_step(b1, g, s1, H, ema)
        opts.adamw_step(b2, g, s2, H)
        assert np.max(np.abs(b1.values - b2.values)) < 1e-4 * 0.1

    def test_zero_gradient_stream(self):
        ema = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=100, t_beta3=100)
        block = ParamBlock("a", np.array([2.0, -1.0]))
        state = opts.AdemamixState.zeros(2)
        for _ in range(5):
            opts.ademamix_step(block, np.zeros(2), state, H, ema)
        assert np.array_equal(block.values, np.array([2.0, -1.0]))
        assert np.all(state.m_slow == 0.0)


class TestLion:
    def test_hand_example(self):
        block = scalar_block(0.0)
        state = opts.SignState.zeros(1)
        opts.lion_step(block, np.array([1.5]), state, H, beta1=0.9, beta2=0.99)
        assert block.values[0] == -0.1
        assert state.m[0] == pytest.approx(0.015, abs=1e-15)

    def test_sign_zero_convention(self):
        block = scalar_block(3.0)
        state = opts.SignState.zeros(1)
        opts.lion_step(block, np.zeros(1), state, H)
        assert block.values[0] == 3.0

    def test_large_beta1_accepted(self):
        block = scalar_block()
        opts.lion_step(block, np.ones(1), opts.SignState.zeros(1), H, beta1=0.99)


class TestSignum:
    def test_hand_example(self):
        block = scalar_block(0.0)
        state = opts.SignState.zeros(1)
        opts.signum_step(block, np.array([-3.0]), state, H, beta=0.95)
        assert state.m[0] == -3.0
        assert block.values[0] == pytest.approx(0.1, abs=1e-18)

    def test_dampening_recovers_ema_momentum(self):
        # tau = beta turns the buffer into m <- beta m + (1 - beta) g
        beta = 0.9
        state = opts.SignState.zeros(2)
        block = ParamBlock("x", np.zeros(2))
        grads = [np.array([1.0, -2.0]), np.array([0.5, 0.5]), np.array([-1.0, 3.0])]
        ema = np.zeros(2)
        for g in grads:
            opts.signum_step(block, g, state, H, beta=beta, nesterov=False, dampening=beta)
            ema = beta * ema + (1 - beta) * g
            assert np.allclose(state.m, ema, atol=1e-15)

    def test_nesterov_requires_zero_dampening(self):
        with pytest.raises(ContractViolationError):
            opts.signum_step(scalar_block(), np.ones(1), opts.SignState.zeros(1), H, beta=0.9, nesterov=True, dampening=0.5)


class TestNewtonSchulz:
    def test_identity_one_step_closed_form(self):
        a, b, c = opts.NS_COEFFS
        expected = (a + b / 2.0 + c / 4.0) / math.sqrt(2.0)
        out = opts.newton_schulz_orthogonalize(np.eye(2), iters=1)
        assert np.allclose(out, expected * np.eye(2), atol=1e-12)
        assert expected == pytest.approx(1.10653, abs=1e-4)

    def test_orthogonal_input_stays_a_multiple(self):
        from optlab.linalg import qr_orthonormal

        q = qr_orthonormal(np.random.default_rng(0).standard_normal((6, 6)))
        out = opts.newton_schulz_orthogonalize(q, iters=5)
        scale = np.trace(q.T @ out) / 6.0
        assert np.max(np.abs(out - scale * q)) < 1e-9

    def test_zero_matrix_rejected(self):
        with pytest.raises(ContractViolationError):
            opts.newton_schulz_orthogonalize(np.zeros((3, 3)))

    def test_tall_input_transposes(self):
        g = np.arange(12.0).reshape(4, 3) + 1.0
        out = opts.newton_schulz_orthogonalize(g, iters=5)
        assert out.shape == (4, 3)


class TestMuonRouting:
    def test_vector_block_matches_adamw(self):
        grads = [np.array([0.3, -0.7, 0.2]) * (i + 1) for i in range(20)]
        b_muon = ParamBlock("b", np.ones(3), role="vector")
        b_adam = ParamBlock("b", np.ones(3), role="vector")
        engine = Muon([b_muon], lr=0.01, lr_1d=1e-3, weight_decay=0.1)
        asx = opts.AdamLikeState.zeros(3)
        hyper = CommonHyper(1e-3, 0.1)
        for g in grads:
            engine.step({"b": g})
            opts.adamw_step(b_adam, g, asx, hyper, 0.8, 0.999)
        assert np.array_equal(b_muon.values, b_adam.values)

    def test_dmuon_scales_muon_update(self):
        n = 4
        g = np.array(np.arange(n * n), dtype=float).reshape(n, n) / 10.0 + 0.1
        w_m = ParamBlock("w", np.zeros((n, n)), role="matrix")
        w_d = ParamBlock("w", np.zeros((n, n)), role="matrix")
        opts.muon_step(w_m, g, opts.MuonState.for_block(w_m), CommonHyper(1e-2, 0.5))
        opts.dmuon_step(w_d, g, opts.MuonState.for_block(w_d), CommonHyper(1e-2, 0.0))
        assert np.allclose(w_d.values, 0.2 * math.sqrt(n) * w_m.values, atol=1e-15)

    @pytest.mark.parametrize("rms_factor", [-1.0, 0.0, math.nan])
    def test_dmuon_rejects_rms_factor_not_positive(self, rms_factor):
        block = ParamBlock("w", np.ones((2, 3)), role="matrix")
        state = opts.MuonState.for_block(block)
        with pytest.raises(ContractViolationError, match="rms_factor must be positive, got"):
            opts.dmuon_step(block, np.ones((2, 3)), state, H, rms_factor=rms_factor)
        assert np.all(block.values == 1.0) and np.all(state.m == 0.0)

    def test_dmuon_rejects_an_infinite_rms_factor(self):
        block = ParamBlock("w", np.ones((2, 3)), role="matrix")
        with pytest.raises(ContractViolationError, match="rms_factor must be finite, got inf"):
            opts.dmuon_step(block, np.ones((2, 3)), opts.MuonState.for_block(block), H, rms_factor=math.inf)
        assert np.all(block.values == 1.0)

    @pytest.mark.parametrize("rule", ["muon", "dmuon", "mars-shampoo"])
    @pytest.mark.parametrize("index,name", enumerate(("ns_a", "ns_b", "ns_c")))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_orthogonalizing_steps_reject_a_non_finite_coefficient(self, rule, index, name, value):
        coeffs = list(muon.NS_COEFFS)
        coeffs[index] = value
        block = ParamBlock("w", np.ones((2, 3)), role="matrix")
        with pytest.raises(ContractViolationError, match=f"{name} must be finite, got {value!r}"):
            if rule == "mars-shampoo":
                opts.mars_step(block, np.ones((2, 3)), opts.MarsState.for_block(block), H, "shampoo", ns_coeffs=coeffs)
            else:
                step = opts.muon_step if rule == "muon" else opts.dmuon_step
                step(block, np.ones((2, 3)), opts.MuonState.for_block(block), H, ns_coeffs=coeffs)
        assert np.all(block.values == 1.0)


class TestSoap:
    def test_vector_block_matches_adamw(self):
        b_soap = ParamBlock("b", np.ones(5), role="vector")
        b_adam = ParamBlock("b", np.ones(5), role="vector")
        engine = Soap([b_soap], lr=1e-3, weight_decay=0.1)
        astate = opts.AdamLikeState.zeros(5)
        hyper = CommonHyper(1e-3, 0.1)
        for i in range(15):
            g = np.sin(np.arange(5.0) + i)
            engine.step({"b": g})
            opts.adamw_step(b_adam, g, astate, hyper)
        assert np.array_equal(b_soap.values, b_adam.values)

    def test_oversized_block_falls_back_to_adamw(self):
        block = ParamBlock("w", np.zeros((4, 3)), role="matrix")
        engine = Soap([block], precond_max_dim=2)
        assert "w" in engine.adam_states and "w" not in engine.states

    def test_first_gradient_initializes_without_motion(self):
        block = ParamBlock("w", np.ones((3, 3)), role="matrix")
        state = opts.SoapState.for_block(block)
        g = np.arange(9.0).reshape(3, 3) + 1.0
        delta = opts.soap_step(block, g, state, CommonHyper(1e-3, 0.0))
        assert np.all(delta == 0.0) and np.all(block.values == 1.0)
        assert state.q_l is not None and state.t == 0
        # bases are orthonormal after init
        assert np.allclose(state.q_l.T @ state.q_l, np.eye(3), atol=1e-12)


class TestSophia:
    def test_pure_sign_step_when_h_zero(self):
        block = ParamBlock("x", np.zeros(3))
        state = opts.SophiaState.zeros(3)
        g = np.array([0.4, -0.2, 0.9])
        opts.sophia_step(block, g, state, CommonHyper(0.1, 0.0, 1e-15),
                         resampled_grad=np.zeros(3), batch_size=8)
        assert np.allclose(block.values, -0.1 * np.sign(g), atol=1e-18)

    def test_adam_like_regime_when_h_large(self):
        block = ParamBlock("x", np.zeros(1))
        state = opts.SophiaState(m=np.zeros(1), h=np.array([1000.0]), t=1)
        g = np.array([0.5])
        opts.sophia_step(block, g, state, CommonHyper(0.1, 0.0, 1e-15), rho=0.04, estimator_freq=10)
        expected = -0.1 * state.m[0] / (0.04 * 1000.0 + 1e-15)
        assert block.values[0] == pytest.approx(expected, abs=1e-18)

    @pytest.mark.parametrize("rho", [0.0, -0.04, math.nan])
    def test_rejects_rho_not_positive(self, rho):
        with pytest.raises(ContractViolationError, match="rho must be positive, got"):
            opts.sophia_step(ParamBlock("x", np.zeros(2)), np.ones(2), opts.SophiaState.zeros(2), H, rho=rho)

    def test_rejects_an_infinite_rho(self):
        with pytest.raises(ContractViolationError, match="rho must be finite, got inf"):
            opts.sophia_step(ParamBlock("x", np.zeros(2)), np.ones(2), opts.SophiaState.zeros(2), H, rho=math.inf)

    def test_refresh_requires_estimate(self):
        state = opts.SophiaState.zeros(2)
        with pytest.raises(ContractViolationError):
            opts.sophia_step(ParamBlock("x", np.zeros(2)), np.ones(2), state, H)

    def test_gnb_estimate_nonnegative(self):
        state = opts.SophiaState.zeros(4)
        block = ParamBlock("x", np.zeros(4))
        opts.sophia_step(block, np.ones(4), state, H, resampled_grad=np.array([1.0, -2.0, 0.0, 0.5]),
                         batch_size=16)
        assert np.all(state.h >= 0.0)


class TestScheduleFree:
    def test_first_step_collapse(self):
        blocks = [ParamBlock("x", np.array([1.0, -2.0]))]
        state = opts.ScheduleFreeState.for_blocks(blocks, warmup_steps=0)
        opts.sfadamw_step(blocks, {"x": np.array([0.3, 0.3])}, state, CommonHyper(1e-2, 0.0))
        assert np.array_equal(blocks[0].values, state.z["x"])

    def test_eval_point_interpolates(self):
        blocks = [ParamBlock("x", np.array([1.0]))]
        state = opts.ScheduleFreeState.for_blocks(blocks, warmup_steps=0)
        state.z["x"] = np.array([3.0])
        point = opts.sf_eval_point(blocks, state, beta1=0.9)
        assert point["x"][0] == pytest.approx(0.1 * 3.0 + 0.9 * 1.0)


class TestProdigy:
    def test_first_step_keeps_d(self):
        blocks = [ParamBlock("x", np.array([0.5, -0.5]))]
        state = opts.ProdigyState.for_blocks(blocks)
        _, eff = opts.prodigy_step(blocks, {"x": np.array([1.0, 2.0])}, state, CommonHyper(1.0, 0.0))
        assert state.d == 1e-6
        assert state.r == 0.0
        assert eff > 0.0

    @pytest.mark.parametrize("d0", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_d0_not_finite_and_positive(self, d0):
        with pytest.raises(ContractViolationError, match="d0 must be finite and > 0, got"):
            opts.ProdigyState.for_blocks([scalar_block()], d0)

    def test_d_never_decreases(self):
        blocks = [ParamBlock("x", np.zeros(3))]
        state = opts.ProdigyState.for_blocks(blocks)
        rng = np.random.default_rng(1)
        last = state.d
        for _ in range(100):
            opts.prodigy_step(blocks, {"x": rng.standard_normal(3)}, state, CommonHyper(1.0, 0.0))
            assert state.d >= last
            last = state.d


class TestMars:
    def test_correction_vanishes_when_gradient_repeats(self):
        g = np.arange(6.0).reshape(2, 3) / 10.0
        block_a = ParamBlock("w", np.zeros((2, 3)), role="matrix")
        block_b = ParamBlock("w", np.zeros((2, 3)), role="matrix")
        state_a = opts.MarsState.for_block(block_a)
        state_b = opts.MarsState.for_block(block_b)
        state_a.g_prev = g.copy()  # c = g when g == g_prev
        opts.mars_step(block_a, g, state_a, H, "adamw", eta=0.025)
        opts.mars_step(block_b, g, state_b, H, "adamw", eta=0.0)  # eta = 0 kills the correction
        assert np.array_equal(block_a.values, block_b.values)

    def test_clip_to_unit_norm(self):
        g = np.zeros((2, 2))
        g[0, 0] = 2.0  # ||c|| = 2 with eta = 0
        block = ParamBlock("w", np.zeros((2, 2)), role="matrix")
        state = opts.MarsState.for_block(block)
        opts.mars_step(block, g, state, H, "adamw", beta1=0.95, beta2=0.99, eta=0.0)
        assert state.m[0, 0] == pytest.approx(0.05 * 1.0, abs=1e-15)

    def test_shampoo_variant_skips_clip(self):
        g = np.zeros((2, 2))
        g[0, 0] = 2.0
        block = ParamBlock("w", np.zeros((2, 2)), role="matrix")
        state = opts.MarsState.for_block(block)
        opts.mars_step(block, g, state, H, "shampoo", beta1=0.95, eta=0.0)
        assert state.m[0, 0] == pytest.approx(0.05 * 2.0, abs=1e-15)

    def test_vector_blocks_route_to_adamw(self):
        b_mars = ParamBlock("b", np.ones(4), role="vector")
        b_adam = ParamBlock("b", np.ones(4), role="vector")
        engine = Mars([b_mars], lr=3e-3, lr_1d=1e-3, weight_decay=0.1)
        astate = opts.AdamLikeState.zeros(4)
        hyper = CommonHyper(1e-3, 0.1)
        for i in range(10):
            g = np.cos(np.arange(4.0) * (i + 1))
            engine.step({"b": g})
            opts.adamw_step(b_adam, g, astate, hyper, 0.8, 0.999)
        assert np.array_equal(b_mars.values, b_adam.values)

    def test_unknown_variant_rejected(self):
        block = ParamBlock("w", np.zeros((2, 2)), role="matrix")
        with pytest.raises(ContractViolationError):
            opts.mars_step(block, np.ones((2, 2)), opts.MarsState.for_block(block), H, "sgd")

    @pytest.mark.parametrize("eta,shown", [(-1, "-1"), (-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf")])
    def test_eta_must_be_finite_and_non_negative(self, eta, shown):
        block = ParamBlock("w", np.zeros((2, 2)), role="matrix")
        state = opts.MarsState.for_block(block)
        with pytest.raises(ContractViolationError, match=f"eta must be finite and >= 0, got {shown}$"):
            opts.mars_step(block, np.ones((2, 2)), state, H, "adamw", eta=eta)
        assert state.t == 0 and not block.values.any()


def assert_bit_identical(a, b, path="engine"):
    """Recursively compare two engines' attributes: arrays by their bytes, everything else by ``==``."""
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_bit_identical(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{path}[{i}]")
    elif hasattr(a, "__dict__"):
        assert_bit_identical(vars(a), vars(b), path)
    else:
        assert a == b, path


class TestRouter:
    @pytest.mark.parametrize("name", ["adamw", "adopt", "ademamix", "lion", "signum", "sophia"])
    def test_engines_without_a_1d_group_step_every_block_by_the_rule(self, name):
        blocks = [
            ParamBlock("w", np.zeros((3, 4)), "matrix"),
            ParamBlock("e", np.zeros((5, 2)), "embedding"),
            ParamBlock("b", np.zeros(3), "vector"),
        ]
        engine = make_optimizer(name, blocks, 10)
        assert list(engine.states) == ["w", "e", "b"]
        assert engine.adam_states == {}

    @pytest.mark.parametrize("name", [n for n in OPTIMIZER_NAMES if not OPTIMIZERS[n].needs_gnb])
    def test_gnb_arguments_are_ignored_by_rules_that_do_not_need_them(self, name):
        def engine():
            rng = np.random.default_rng(5)
            blocks = [ParamBlock("w", rng.standard_normal((3, 4)), "matrix"), ParamBlock("b", rng.standard_normal(3))]
            return make_optimizer(name, blocks, 4, {"weight_decay": 0.1})

        plain, given = engine(), engine()
        rng = np.random.default_rng(6)
        for t in range(1, 5):
            grads = {b.name: rng.standard_normal(b.shape) for b in plain.blocks}
            resampled = {b.name: rng.standard_normal(b.shape) for b in plain.blocks}
            before = [b.values.copy() for b in plain.blocks]
            info_plain = plain.step(grads, 0.5)
            info_given = given.step(grads, 0.5, resampled, 8)
            assert_bit_identical(info_plain, info_given, f"StepInfo at step {t}")
            for x0, b_plain, b_given in zip(before, plain.blocks, given.blocks):
                assert_bit_identical(b_plain.values - x0, b_given.values - x0, f"increment of {b_plain.name!r}")
            assert_bit_identical(plain, given, f"engine after step {t}")


class TestDecoupledUpdate:
    def test_commits_and_returns_the_decayed_step(self):
        x = np.array([1.5, -2.0, 0.25])
        direction = np.array([0.3, -0.7, 1.1])
        block = ParamBlock("x", x.copy())
        delta = base.decoupled_update(block, direction, 0.1, 0.01, "rule")
        expected = -0.1 * (direction + 0.01 * x)
        assert np.array_equal(delta, expected)
        assert np.array_equal(block.values, x + expected)

    def test_non_finite_buffer_or_result_poisons(self):
        with pytest.raises(PoisonedStateError, match="non-finite state buffer in rule"):
            base.decoupled_update(scalar_block(1.0), np.ones(1), 0.1, 0.0, "rule", np.ones(1), np.array([np.inf]))
        with pytest.raises(PoisonedStateError, match="non-finite parameters in block 'x'"):
            base.decoupled_update(scalar_block(1.0), np.array([np.nan]), 0.1, 0.0, "rule", np.ones(1))

    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    def test_engines_commit_each_block_once_per_step(self, monkeypatch, name):
        calls = []

        def counted(block, *args, _fn=base.decoupled_update):
            calls.append(block.name)
            return _fn(block, *args)

        for module in (base, mars, muon, prodigy, sign, soap, sophia):
            monkeypatch.setattr(module, "decoupled_update", counted)
        rng = np.random.default_rng(3)
        blocks = [ParamBlock("w", rng.standard_normal((3, 4)), "matrix"), ParamBlock("b", rng.standard_normal(3))]
        engine = make_optimizer(name, blocks, 3, {"weight_decay": 0.1})
        # muon's matrix path has no decay and sf-adamw moves to an averaged iterate: neither commits here
        never = {"muon": {"w"}, "sf-adamw": {"w", "b"}}.get(name, set())
        # the first step of adopt, and of soap's matrix path, only seeds state and moves nothing
        seeding = {"adopt": {"w", "b"}, "soap": {"w"}}.get(name, set())
        for t in range(1, 4):
            grads = {b.name: rng.standard_normal(b.shape) for b in blocks}
            calls.clear()
            engine.step(grads, 1.0, grads if engine.wants_estimate() else None, 8)
            skip = never | (seeding if t == 1 else set())
            assert calls == [b.name for b in blocks if b.name not in skip], f"step {t}"
