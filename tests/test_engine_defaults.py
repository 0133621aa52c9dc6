"""The constructor defaults are the tuned reference values; pin them."""

import numpy as np

from optlab.blocks import ParamBlock
from optlab.optimizers import NS_COEFFS, NS_ITERS
from optlab.optimizers.engine import (
    AdamW,
    Ademamix,
    Adopt,
    Lion,
    Mars,
    Muon,
    Prodigy,
    ScheduleFreeAdamW,
    Signum,
    Soap,
    Sophia,
)


def _block():
    return [ParamBlock("x", np.zeros(3))]


def test_adamw_defaults():
    e = AdamW(_block())
    assert (e.beta1, e.beta2, e.eps) == (0.9, 0.999, 1e-8)


def test_adopt_uses_smaller_epsilon():
    assert Adopt(_block()).eps == 1e-6


def test_ademamix_defaults_and_horizons():
    e = Ademamix(_block(), total_steps=1234)
    assert (e.beta1, e.beta2) == (0.9, 0.999)
    assert (e.ema.alpha, e.ema.beta3) == (8.0, 0.9999)
    assert e.ema.beta_start == e.beta1
    assert e.ema.t_alpha == e.ema.t_beta3 == 1234


def test_lion_defaults():
    e = Lion(_block())
    assert (e.beta1, e.beta2) == (0.9, 0.99)


def test_signum_defaults():
    e = Signum(_block())
    assert (e.momentum, e.nesterov, e.dampening) == (0.95, True, 0.0)


def test_muon_defaults():
    e = Muon(_block())
    assert (e.lr, e.momentum) == (0.01, 0.95)
    assert e.betas_1d == (0.8, 0.999)
    assert NS_COEFFS == (3.4445, -4.7750, 2.0315) and NS_ITERS == 5


def test_soap_defaults():
    e = Soap([ParamBlock("w", np.zeros((2, 2)), role="matrix")])
    state = e.states["w"]
    assert state.precond_freq == 10 and state.bias_correction
    capped = Soap([ParamBlock("w", np.zeros((2, 10001)), role="matrix")])
    assert "w" in capped.adam_states  # over the dimension cap


def test_sophia_defaults():
    e = Sophia(_block())
    assert (e.rho, e.estimator_freq) == (0.04, 10)
    assert (e.beta1, e.beta2) == (0.9, 0.999)


def test_schedule_free_defaults():
    e = ScheduleFreeAdamW(_block())
    assert (e.beta1, e.beta2) == (0.9, 0.9999)


def test_prodigy_defaults():
    e = Prodigy(_block())
    assert e.lr == 1.0
    assert e.state.d == 1e-6
    assert e.state.bias_correction


def test_mars_defaults():
    e = Mars(_block())
    assert (e.beta1, e.beta2, e.eta) == (0.95, 0.99, 0.025)
    assert e.betas_1d == (0.8, 0.999)
    assert e.weight_decay_1d == e.weight_decay
