"""Uniform step interface over all fourteen update rules.

An engine owns the per-block optimizer states for one run. The training loop
asks ``eval_point()`` where to evaluate the gradient (only the schedule-free
method answers anything other than the current parameters), then calls
``step(grads, scale)`` where ``scale`` is the schedule multiplier in (0, 1]:
each group's learning rate is its peak value times ``scale``.

Hybrid rules (Muon, DMuon, SOAP and the MARS family) share one router,
:class:`_Hybrid`: ``matrix`` blocks take the rule's matrix path and every
other block runs AdamW with the rule's 1-D values.

Engines are constructed through :func:`make_optimizer`, which maps flat
config keys onto constructor arguments and rejects unknown ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock, global_norm
from ..errors import ConfigurationError
from ..schedules import EmaScheduleSpec
from . import base, mars, muon, prodigy, schedule_free, sign, soap, sophia


@dataclass(frozen=True)
class StepInfo:
    """What one optimizer step reports back for logging."""

    update_norm: float
    effective_lr: float
    d: float | None = None


class Optimizer:
    """Base class: block bookkeeping plus the default gradient point."""

    name = "base"

    def __init__(self, blocks: list[ParamBlock]):
        self.blocks = list(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate block names: {names}")

    @property
    def gnb_freq(self) -> int | None:
        """Estimator refresh period, for rules that resample labels."""
        return None

    def wants_estimate(self) -> bool:
        return False

    def eval_point(self) -> dict[str, np.ndarray]:
        return {b.name: b.values for b in self.blocks}

    def step(self, grads, scale: float = 1.0, resampled=None, batch_size=None) -> StepInfo:
        raise NotImplementedError


class _PerBlock(Optimizer):
    """Engines whose rule applies block by block."""

    def _step_block(self, block: ParamBlock, grad: np.ndarray, scale: float) -> np.ndarray:
        raise NotImplementedError

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        deltas = [self._step_block(b, grads[b.name], scale) for b in self.blocks]
        return StepInfo(global_norm(deltas), self.lr * scale)


class AdamW(_PerBlock):
    name = "adamw"

    def __init__(self, blocks, lr=1e-3, weight_decay=0.0, eps=1e-8, beta1=0.9, beta2=0.999):
        super().__init__(blocks)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        self.states = {b.name: base.AdamLikeState.zeros(b.shape) for b in self.blocks}

    def _step_block(self, block, grad, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return base.adamw_step(block, grad, self.states[block.name], hyper, self.beta1, self.beta2)


class Adopt(_PerBlock):
    """First call only seeds v0 from the observed gradient (no motion)."""

    name = "adopt"

    def __init__(self, blocks, lr=1e-3, weight_decay=0.0, eps=1e-6, beta1=0.9, beta2=0.999):
        super().__init__(blocks)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        self.states = {b.name: base.AdoptState.zeros(b.shape) for b in self.blocks}

    def _step_block(self, block, grad, scale):
        state = self.states[block.name]
        if not state.v_ready:
            base.adopt_init(state, grad)
            return np.zeros(block.shape)
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return base.adopt_step(block, grad, state, hyper, self.beta1, self.beta2)


class Ademamix(_PerBlock):
    name = "ademamix"

    def __init__(
        self,
        blocks,
        total_steps,
        lr=1e-3,
        weight_decay=0.0,
        eps=1e-8,
        beta1=0.9,
        beta2=0.999,
        beta3=0.9999,
        alpha=8.0,
        beta_start=None,
        t_alpha=None,
        t_beta3=None,
    ):
        super().__init__(blocks)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        # the mixing schedulers default to spanning the whole run
        self.ema = EmaScheduleSpec(
            alpha=alpha,
            beta3=beta3,
            beta_start=beta1 if beta_start is None else beta_start,
            t_alpha=total_steps if t_alpha is None else t_alpha,
            t_beta3=total_steps if t_beta3 is None else t_beta3,
        )
        self.states = {b.name: base.AdemamixState.zeros(b.shape) for b in self.blocks}

    def _step_block(self, block, grad, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return base.ademamix_step(block, grad, self.states[block.name], hyper, self.ema, self.beta1, self.beta2)


class Lion(_PerBlock):
    name = "lion"

    def __init__(self, blocks, lr=1e-4, weight_decay=0.0, beta1=0.9, beta2=0.99):
        super().__init__(blocks)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2 = beta1, beta2
        self.states = {b.name: sign.SignState.zeros(b.shape) for b in self.blocks}

    def _step_block(self, block, grad, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay)
        return sign.lion_step(block, grad, self.states[block.name], hyper, self.beta1, self.beta2)


class Signum(_PerBlock):
    name = "signum"

    def __init__(
        self,
        blocks,
        lr=1e-3,
        weight_decay=0.0,
        momentum=0.95,
        nesterov=True,
        dampening=0.0,
        coupled_wd=False,
    ):
        super().__init__(blocks)
        self.lr, self.weight_decay = lr, weight_decay
        self.momentum, self.nesterov, self.dampening = momentum, nesterov, dampening
        self.coupled_wd = coupled_wd
        self.states = {b.name: sign.SignState.zeros(b.shape) for b in self.blocks}

    def _step_block(self, block, grad, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay)
        return sign.signum_step(
            block,
            grad,
            self.states[block.name],
            hyper,
            self.momentum,
            self.nesterov,
            self.dampening,
            self.coupled_wd,
        )


class _Hybrid(_PerBlock):
    """Engines that send matrix blocks through the rule and the rest to AdamW.

    Routing is decided once, here: a block takes the matrix path when its
    role is ``matrix`` and no side exceeds ``max_side``; its state, built by
    ``matrix_state(block)``, goes in ``states``. Every other block is the 1-D
    group: its state goes in ``adam_states`` and ``base.adamw_step`` steps it
    at ``lr_1d * scale`` with ``weight_decay_1d`` and ``betas_1d``.
    Subclasses implement ``_matrix_step``.
    """

    def __init__(self, blocks, matrix_state, lr_1d, weight_decay_1d, eps, betas_1d, max_side=math.inf):
        super().__init__(blocks)
        self.lr_1d, self.weight_decay_1d, self.eps = lr_1d, weight_decay_1d, eps
        self.betas_1d = betas_1d
        self.states, self.adam_states = {}, {}
        for b in self.blocks:
            if b.matrix_routed() and max(b.shape) <= max_side:
                self.states[b.name] = matrix_state(b)
            else:
                self.adam_states[b.name] = base.AdamLikeState.zeros(b.shape)

    def _matrix_step(self, block: ParamBlock, grad: np.ndarray, state, scale: float) -> np.ndarray:
        raise NotImplementedError

    def _step_block(self, block, grad, scale):
        adam = self.adam_states.get(block.name)
        if adam is None:
            return self._matrix_step(block, grad, self.states[block.name], scale)
        hyper = CommonHyper(self.lr_1d * scale, self.weight_decay_1d, self.eps)
        return base.adamw_step(block, grad, adam, hyper, *self.betas_1d)


class Muon(_Hybrid):
    """Orthogonalized momentum on matrices, AdamW with its own lr on the rest."""

    name = "muon"

    def __init__(
        self,
        blocks,
        lr=0.01,
        lr_1d=1e-3,
        weight_decay=0.0,
        eps=1e-8,
        momentum=0.95,
        ns_iters=muon.NS_ITERS,
        ns_coeffs=muon.NS_COEFFS,
        beta1_1d=0.8,
        beta2_1d=0.999,
    ):
        super().__init__(blocks, muon.MuonState.for_block, lr_1d, weight_decay, eps, (beta1_1d, beta2_1d))
        self.lr, self.weight_decay = lr, weight_decay
        self.momentum = momentum
        self.ns_iters, self.ns_coeffs = ns_iters, ns_coeffs

    def _matrix_step(self, block, grad, state, scale):
        # the matrix path applies no weight decay
        hyper = CommonHyper(self.lr * scale, 0.0, self.eps)
        return muon.muon_step(block, grad, state, hyper, self.momentum, self.ns_iters, self.ns_coeffs)


class DMuon(_Hybrid):
    """One lr and weight decay for all groups; RMS-matched matrix updates."""

    name = "dmuon"

    def __init__(
        self,
        blocks,
        lr=1e-3,
        weight_decay=0.0,
        eps=1e-8,
        momentum=0.95,
        rms_factor=muon.RMS_FACTOR,
        ns_iters=muon.NS_ITERS,
        ns_coeffs=muon.NS_COEFFS,
        beta1_1d=0.8,
        beta2_1d=0.999,
    ):
        super().__init__(blocks, muon.MuonState.for_block, lr, weight_decay, eps, (beta1_1d, beta2_1d))
        self.lr, self.weight_decay = lr, weight_decay
        self.momentum, self.rms_factor = momentum, rms_factor
        self.ns_iters, self.ns_coeffs = ns_iters, ns_coeffs

    def _matrix_step(self, block, grad, state, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return muon.dmuon_step(
            block, grad, state, hyper, self.momentum, self.rms_factor, self.ns_iters, self.ns_coeffs
        )


class Soap(_Hybrid):
    """Rotated Adam on matrices up to ``precond_max_dim`` a side; AdamW on the rest."""

    name = "soap"

    def __init__(
        self,
        blocks,
        lr=1e-3,
        weight_decay=0.0,
        eps=1e-8,
        beta1=0.9,
        beta2=0.999,
        precond_freq=10,
        precond_max_dim=10000,
        bias_correction=True,
        identity_init=False,
    ):
        def matrix_state(block):
            return soap.SoapState.for_block(block, precond_freq, bias_correction, identity_init)

        super().__init__(blocks, matrix_state, lr, weight_decay, eps, (beta1, beta2), max_side=precond_max_dim)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2 = beta1, beta2

    def _matrix_step(self, block, grad, state, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return soap.soap_step(block, grad, state, hyper, self.beta1, self.beta2)


class Sophia(_PerBlock):
    name = "sophia"

    def __init__(
        self,
        blocks,
        lr=3e-4,
        weight_decay=0.0,
        eps=1e-15,
        beta1=0.9,
        beta2=0.999,
        rho=0.04,
        estimator_freq=10,
    ):
        super().__init__(blocks)
        self.lr = lr
        self.weight_decay, self.eps = weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        self.rho, self.estimator_freq = rho, estimator_freq
        self.states = {b.name: sophia.SophiaState.zeros(b.shape) for b in self.blocks}
        self._resampled = None
        self._batch_size = None

    @property
    def gnb_freq(self) -> int:
        return self.estimator_freq

    def wants_estimate(self) -> bool:
        t_next = next(iter(self.states.values())).t + 1
        return sophia.sophia_wants_estimate(t_next, self.estimator_freq)

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        self._resampled, self._batch_size = resampled, batch_size
        try:
            return super().step(grads, scale)
        finally:
            self._resampled = self._batch_size = None

    def _step_block(self, block, grad, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        resampled = self._resampled[block.name] if self._resampled is not None else None
        return sophia.sophia_step(
            block,
            grad,
            self.states[block.name],
            hyper,
            self.beta1,
            self.beta2,
            self.rho,
            self.estimator_freq,
            resampled,
            self._batch_size,
        )


class ScheduleFreeAdamW(Optimizer):
    name = "sf-adamw"

    def __init__(self, blocks, lr=1e-3, weight_decay=0.0, eps=1e-8, beta1=0.9, beta2=0.9999, sf_warmup=0):
        super().__init__(blocks)
        self.lr = lr
        self.weight_decay, self.eps = weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        self.state = schedule_free.ScheduleFreeState.for_blocks(self.blocks, sf_warmup)

    def eval_point(self):
        return schedule_free.sf_eval_point(self.blocks, self.state, self.beta1)

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        deltas = schedule_free.sfadamw_step(self.blocks, grads, self.state, hyper, self.beta1, self.beta2)
        return StepInfo(global_norm(deltas.values()), self.lr * scale)


class Prodigy(Optimizer):
    name = "prodigy"

    def __init__(
        self,
        blocks,
        lr=1.0,
        weight_decay=0.0,
        eps=1e-8,
        beta1=0.9,
        beta2=0.999,
        bias_correction=True,
        d0=prodigy.D_INIT,
    ):
        super().__init__(blocks)
        self.lr = lr
        self.weight_decay, self.eps = weight_decay, eps
        self.beta1, self.beta2 = beta1, beta2
        self.state = prodigy.ProdigyState.for_blocks(self.blocks, d0, bias_correction)

    @property
    def d(self) -> float:
        return self.state.d

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        deltas, eff_lr = prodigy.prodigy_step(self.blocks, grads, self.state, hyper, self.beta1, self.beta2)
        return StepInfo(global_norm(deltas.values()), eff_lr, self.state.d)


class Mars(_Hybrid):
    name = "mars-adamw"
    variant = "adamw"

    def __init__(
        self,
        blocks,
        lr=3e-3,
        lr_1d=1e-3,
        weight_decay=0.0,
        weight_decay_1d=None,
        eps=1e-8,
        beta1=0.95,
        beta2=0.99,
        eta=0.025,
        ns_iters=muon.NS_ITERS,
        ns_coeffs=muon.NS_COEFFS,
        beta1_1d=0.8,
        beta2_1d=0.999,
    ):
        wd_1d = weight_decay if weight_decay_1d is None else weight_decay_1d
        super().__init__(blocks, mars.MarsState.for_block, lr_1d, wd_1d, eps, (beta1_1d, beta2_1d))
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eta = beta1, beta2, eta
        self.ns_iters, self.ns_coeffs = ns_iters, ns_coeffs

    def _matrix_step(self, block, grad, state, scale):
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        return mars.mars_step(
            block,
            grad,
            state,
            hyper,
            self.variant,
            self.beta1,
            self.beta2,
            self.eta,
            self.ns_iters,
            self.ns_coeffs,
        )


class MarsLion(Mars):
    name = "mars-lion"
    variant = "lion"


class MarsShampoo(Mars):
    name = "mars-shampoo"
    variant = "shampoo"


OPTIMIZERS: dict[str, type[Optimizer]] = {
    cls.name: cls
    for cls in (
        AdamW,
        Adopt,
        Ademamix,
        Lion,
        Signum,
        Muon,
        DMuon,
        Soap,
        Sophia,
        ScheduleFreeAdamW,
        Prodigy,
        Mars,
        MarsLion,
        MarsShampoo,
    )
}

OPTIMIZER_NAMES = tuple(OPTIMIZERS)

#: Constructors that need the run length (for their internal schedulers).
_NEEDS_TOTAL_STEPS = {"ademamix"}


def make_optimizer(name: str, blocks, total_steps: int, params: dict | None = None) -> Optimizer:
    """Build an engine from flat config-style parameters.

    ``ns_a``/``ns_b``/``ns_c`` are folded into an ``ns_coeffs`` tuple; unknown
    keys raise :class:`ConfigurationError` naming the offender.
    """
    if name not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer {name!r}; valid names: {', '.join(OPTIMIZER_NAMES)}")
    kwargs = dict(params or {})
    coeffs = [kwargs.pop(k, None) for k in ("ns_a", "ns_b", "ns_c")]
    if any(c is not None for c in coeffs):
        defaults = muon.NS_COEFFS
        kwargs["ns_coeffs"] = tuple(c if c is not None else d for c, d in zip(coeffs, defaults))
    if name in _NEEDS_TOTAL_STEPS:
        kwargs["total_steps"] = total_steps
    try:
        return OPTIMIZERS[name](blocks, **kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad hyperparameters for optimizer {name!r}: {exc}") from exc
