"""Uniform step interface over all fourteen update rules.

An engine owns the per-block optimizer states for one run. The training loop
asks ``eval_point()`` where to evaluate the gradient (only the schedule-free
method answers anything other than the current parameters), then calls
``step(grads, scale)`` where ``scale`` is the schedule multiplier in (0, 1]:
each group's learning rate is its peak value times ``scale``.

Each engine class declares its hyperparameters once, in ``defaults`` (name to
default value). That table is the only list of what the rule accepts:
:class:`Optimizer` rejects any other key and any value unlike its default's
kind, then stores every value as an attribute. ``config.OPTIMIZER_KEYS`` is
the union of the tables.

The twelve block-by-block rules share one router, :class:`_PerBlock`. It
sends each block down the rule's path (``_rule``) or to the AdamW 1-D group,
once, at construction, and steps both groups in block order, each with its
own step's :class:`CommonHyper`. Plain rules have no 1-D group, so every
block takes the rule's path; the hybrid rules (:class:`_Hybrid`: Muon, DMuon,
SOAP and the MARS family) send ``matrix`` blocks down it and run every other
block as AdamW with the rule's 1-D values.

An engine steps one run, or the replicate runs of one cell as a lane group:
blocks of ``lanes`` > 0 (a lane-stacked problem's) hold every lane's values on
a leading axis, the step's gradients stack the same way, and ``update_norm``
is then one norm per lane. Only a rule whose step is element-wise, with
scalars that every lane shares, keeps each lane's bytes that way; ``lane_safe``
says whether an engine is one, and an engine that is not refuses lane-stacked
blocks. Prodigy is not (its ``d`` is one scalar per run), nor is a hybrid
rule with a block on its matrix path.

Engines are constructed through :func:`make_optimizer`.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from ..blocks import CommonHyper, ParamBlock, global_norm
from ..errors import ConfigurationError, ContractViolationError
from ..schedules import EmaScheduleSpec
from . import base, mars, muon, prodigy, schedule_free, sign, soap, sophia

#: Newton-Schulz settings shared by the orthogonalizing rules.
_NS = {"ns_iters": muon.NS_ITERS, **dict(zip(("ns_a", "ns_b", "ns_c"), muon.NS_COEFFS))}

#: AdamW betas of the hybrid rules' 1-D group.
_BETAS_1D = {"beta1_1d": 0.8, "beta2_1d": 0.999}


class StepInfo(NamedTuple):
    """What one optimizer step reports back for logging."""

    update_norm: float
    effective_lr: float
    d: float | None = None


def wrong_kind(value, default, nullable: bool = False) -> str | None:
    """What ``value`` should be when it is unlike ``default``'s kind, else None.

    The kinds are text, true or false, a whole number and a number. ``None``
    also fits where ``nullable`` is set or the default itself is ``None``.
    """
    if type(value) is type(default):  # the common case, without the slower ABC checks below
        return None
    nullable = nullable or default is None
    if value is None and nullable:
        return None
    if isinstance(default, str):
        kind, wanted = str, "text"
    elif isinstance(default, bool):
        kind, wanted = bool, "true or false"
    elif isinstance(default, int):
        kind, wanted = numbers.Integral, "a whole number"
    else:
        kind, wanted = numbers.Real, "a number"
    if isinstance(value, bool) == (kind is bool) and isinstance(value, kind):
        return None
    return wanted + (" or none" if nullable else "")


class Optimizer:
    """Base class: hyperparameter checks, block bookkeeping and the default gradient point."""

    name = "base"
    #: hyperparameter name -> default value; the only list of what the rule takes
    defaults: dict = {}
    #: keys that also take ``None`` although their default is not ``None``
    nullable: tuple[str, ...] = ()
    #: whether ``step`` needs the label-resampled (GNB) gradient of a ``supports_gnb`` problem
    needs_gnb = False
    #: whether lanes stepped together keep each lane's bytes (see the module docstring)
    lane_safe = False

    def __init__(self, blocks: list[ParamBlock], **params):
        self.check_params(params)
        for key, default in self.defaults.items():
            setattr(self, key, params.get(key, default))
        self.blocks = list(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate block names: {names}")
        lanes = {b.lanes for b in self.blocks}
        if len(lanes) > 1:
            raise ContractViolationError(f"the blocks of one engine must stack the same lanes, got {sorted(lanes)}")
        #: the lane count of the blocks, 0 when they have no lane axis
        self.lanes = lanes.pop() if lanes else 0
        if self.lanes and not self.lane_safe:
            raise ContractViolationError(f"optimizer {self.name!r} cannot step replicate lanes together")

    @classmethod
    def check_params(cls, params: dict) -> None:
        """Reject keys outside ``defaults`` and values unlike their default's kind."""
        for key, value in params.items():
            if key not in cls.defaults:
                raise ConfigurationError(
                    f"optimizer {cls.name!r} takes no hyperparameter {key!r}; "
                    f"it accepts: {', '.join(cls.defaults)}"
                )
            wanted = wrong_kind(value, cls.defaults[key], key in cls.nullable)
            if wanted:
                raise ConfigurationError(
                    f"optimizer {cls.name!r}: hyperparameter {key!r} needs {wanted}, got {value!r}"
                )

    def wants_estimate(self) -> bool:
        return False

    def eval_point(self) -> dict[str, np.ndarray]:
        return {b.name: b.values for b in self.blocks}

    def step(self, grads, scale: float = 1.0, resampled=None, batch_size=None) -> StepInfo:
        raise NotImplementedError


class _PerBlock(Optimizer):
    """The one router of the block-by-block engines.

    Routing is decided once, here: a block takes the rule's path when
    ``_takes_rule_path`` says so; its state, built by ``_new_state``, goes in
    ``states``, and a step hands ``_rule`` the block's state and the step's
    :class:`CommonHyper` at ``lr * scale``, plus the block's resampled
    gradient and the batch size for rules that set ``needs_gnb``. Every other
    block is the 1-D group: its state goes in ``adam_states`` and
    ``base.adamw_step`` steps it at ``lr_1d * scale`` with ``weight_decay_1d``
    and ``betas_1d``, read from the attributes that ``keys_1d`` names. An
    engine without ``keys_1d`` has no 1-D group.
    """

    state_type = None
    #: the sign rules take no epsilon and step with CommonHyper's default
    eps = 1e-8
    #: attributes giving the 1-D group its lr, weight decay, beta1 and beta2
    keys_1d: tuple[str, str, str, str] | None = None

    def __init__(self, blocks, **params):
        super().__init__(blocks, **params)
        if self.keys_1d is not None:
            lr_1d, wd_1d, beta1_1d, beta2_1d = (getattr(self, key) for key in self.keys_1d)
            self.lr_1d, self.weight_decay_1d, self.betas_1d = lr_1d, wd_1d, (beta1_1d, beta2_1d)
        self.states, self.adam_states = {}, {}
        for b in self.blocks:
            if self._takes_rule_path(b):
                self.states[b.name] = self._new_state(b)
            else:
                self.adam_states[b.name] = base.AdamLikeState.zeros(b.shape)

    @property
    def lane_safe(self) -> bool:
        # every path is element-wise but a hybrid's matrix path
        return self.keys_1d is None or not any(map(self._takes_rule_path, self.blocks))

    def _takes_rule_path(self, block: ParamBlock) -> bool:
        return self.keys_1d is None or block.matrix_routed()

    def _new_state(self, block: ParamBlock):
        return self.state_type.zeros(block.shape)

    def _rule(self, block: ParamBlock, grad: np.ndarray, state, hyper: CommonHyper, *gnb) -> np.ndarray:
        raise NotImplementedError

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        # a group's CommonHyper is built as its first block steps, so a bad value raises before that block moves
        hyper = hyper_1d = None
        deltas = []
        for b in self.blocks:
            adam = self.adam_states.get(b.name)
            if adam is None:
                hyper = hyper or CommonHyper(self.lr * scale, self.weight_decay, self.eps)
                gnb = (None if resampled is None else resampled[b.name], batch_size) if self.needs_gnb else ()
                deltas.append(self._rule(b, grads[b.name], self.states[b.name], hyper, *gnb))
            else:
                hyper_1d = hyper_1d or CommonHyper(self.lr_1d * scale, self.weight_decay_1d, self.eps)
                deltas.append(base.adamw_step(b, grads[b.name], adam, hyper_1d, *self.betas_1d))
        return StepInfo(global_norm(deltas, self.lanes), self.lr * scale)


class AdamW(_PerBlock):
    name = "adamw"
    defaults = {"lr": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "beta1": 0.9, "beta2": 0.999}
    state_type = base.AdamLikeState

    def _rule(self, block, grad, state, hyper):
        return base.adamw_step(block, grad, state, hyper, self.beta1, self.beta2)


class Adopt(_PerBlock):
    """First call only seeds v0 from the observed gradient (no motion), after checking the betas later calls use."""

    name = "adopt"
    defaults = {"lr": 1e-3, "weight_decay": 0.0, "eps": 1e-6, "beta1": 0.9, "beta2": 0.999}
    state_type = base.AdoptState

    def _rule(self, block, grad, state, hyper):
        if not state.v_ready:
            base.check_beta("beta1", self.beta1)
            base.check_beta("beta2", self.beta2)
            base.adopt_init(state, grad)
            return np.zeros(block.shape)
        return base.adopt_step(block, grad, state, hyper, self.beta1, self.beta2)


class Ademamix(_PerBlock):
    name = "ademamix"
    defaults = {
        "lr": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "beta1": 0.9, "beta2": 0.999,
        "beta3": 0.9999, "alpha": 8.0, "beta_start": None, "t_alpha": None, "t_beta3": None,
    }
    state_type = base.AdemamixState

    def __init__(self, blocks, total_steps, **params):
        super().__init__(blocks, **params)
        # the mixing schedulers default to spanning the whole run
        self.ema = EmaScheduleSpec(
            alpha=self.alpha,
            beta3=self.beta3,
            beta_start=self.beta1 if self.beta_start is None else self.beta_start,
            t_alpha=total_steps if self.t_alpha is None else self.t_alpha,
            t_beta3=total_steps if self.t_beta3 is None else self.t_beta3,
        )

    def _rule(self, block, grad, state, hyper):
        return base.ademamix_step(block, grad, state, hyper, self.ema, self.beta1, self.beta2)


class Lion(_PerBlock):
    name = "lion"
    defaults = {"lr": 1e-4, "weight_decay": 0.0, "beta1": 0.9, "beta2": 0.99}
    state_type = sign.SignState

    def _rule(self, block, grad, state, hyper):
        return sign.lion_step(block, grad, state, hyper, self.beta1, self.beta2)


class Signum(_PerBlock):
    name = "signum"
    defaults = {"lr": 1e-3, "weight_decay": 0.0, "momentum": 0.95, "nesterov": True, "dampening": 0.0}
    state_type = sign.SignState

    def __init__(self, blocks, *, coupled_wd=False, **params):
        super().__init__(blocks, **params)
        # coupled l2 decay is only set by run.coupled_wd_demo, never a config key
        self.coupled_wd = coupled_wd

    def _rule(self, block, grad, state, hyper):
        return sign.signum_step(
            block, grad, state, hyper, self.momentum, self.nesterov, self.dampening, self.coupled_wd
        )


class _Hybrid(_PerBlock):
    """Engines that send matrix blocks through the rule and the rest to AdamW."""

    keys_1d = ("lr_1d", "weight_decay", "beta1_1d", "beta2_1d")

    def _new_state(self, block):
        return self.state_type.for_block(block)


class Muon(_Hybrid):
    """Orthogonalized momentum on matrices, AdamW with its own lr on the rest.

    The matrix path applies no weight decay: ``muon_step`` ignores ``hyper.lam``.
    """

    name = "muon"
    defaults = {"lr": 0.01, "lr_1d": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "momentum": 0.95, **_NS, **_BETAS_1D}
    state_type = muon.MuonState

    def _rule(self, block, grad, state, hyper):
        coeffs = (self.ns_a, self.ns_b, self.ns_c)
        return muon.muon_step(block, grad, state, hyper, self.momentum, self.ns_iters, coeffs)


class DMuon(_Hybrid):
    """One lr and weight decay for all groups; RMS-matched matrix updates."""

    name = "dmuon"
    defaults = {
        "lr": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "momentum": 0.95, "rms_factor": muon.RMS_FACTOR,
        **_NS, **_BETAS_1D,
    }
    state_type = muon.MuonState
    keys_1d = ("lr", "weight_decay", "beta1_1d", "beta2_1d")

    def _rule(self, block, grad, state, hyper):
        coeffs = (self.ns_a, self.ns_b, self.ns_c)
        return muon.dmuon_step(block, grad, state, hyper, self.momentum, self.rms_factor, self.ns_iters, coeffs)


class Soap(_Hybrid):
    """Rotated Adam on matrices up to ``precond_max_dim`` a side; AdamW on the rest."""

    name = "soap"
    defaults = {
        "lr": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "beta1": 0.9, "beta2": 0.999,
        "precond_freq": 10, "precond_max_dim": 10000, "bias_correction": True, "identity_init": False,
    }
    # a precond_freq of None freezes the bases
    nullable = ("precond_freq",)
    keys_1d = ("lr", "weight_decay", "beta1", "beta2")

    def _takes_rule_path(self, block):
        return block.matrix_routed() and max(block.shape[-2:]) <= self.precond_max_dim

    def _new_state(self, block):
        return soap.SoapState.for_block(block, self.precond_freq, self.bias_correction, self.identity_init)

    def _rule(self, block, grad, state, hyper):
        return soap.soap_step(block, grad, state, hyper, self.beta1, self.beta2)


class Sophia(_PerBlock):
    name = "sophia"
    defaults = {
        "lr": 3e-4, "weight_decay": 0.0, "eps": 1e-15, "beta1": 0.9, "beta2": 0.999,
        "rho": 0.04, "estimator_freq": 10,
    }
    state_type = sophia.SophiaState
    needs_gnb = True

    def wants_estimate(self) -> bool:
        t_next = next(iter(self.states.values())).t + 1
        return sophia.sophia_wants_estimate(t_next, self.estimator_freq)

    def _rule(self, block, grad, state, hyper, resampled_grad, batch_size):
        return sophia.sophia_step(
            block, grad, state, hyper, self.beta1, self.beta2, self.rho, self.estimator_freq, resampled_grad, batch_size
        )


class ScheduleFreeAdamW(Optimizer):
    name = "sf-adamw"
    defaults = {"lr": 1e-3, "weight_decay": 0.0, "eps": 1e-8, "beta1": 0.9, "beta2": 0.9999, "sf_warmup": 0}
    # its scalars, gamma_t and the averaging weight, follow the lr and the step count, which lanes share
    lane_safe = True

    def __init__(self, blocks, **params):
        super().__init__(blocks, **params)
        self.state = schedule_free.ScheduleFreeState.for_blocks(self.blocks, self.sf_warmup)

    def eval_point(self):
        return schedule_free.sf_eval_point(self.blocks, self.state, self.beta1)

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        deltas = schedule_free.sfadamw_step(self.blocks, grads, self.state, hyper, self.beta1, self.beta2)
        return StepInfo(global_norm(deltas.values(), self.lanes), self.lr * scale)


class Prodigy(Optimizer):
    name = "prodigy"
    defaults = {
        "lr": 1.0, "weight_decay": 0.0, "eps": 1e-8, "beta1": 0.9, "beta2": 0.999,
        "bias_correction": True, "d0": prodigy.D_INIT,
    }

    def __init__(self, blocks, **params):
        super().__init__(blocks, **params)
        self.state = prodigy.ProdigyState.for_blocks(self.blocks, self.d0, self.bias_correction)

    def step(self, grads, scale=1.0, resampled=None, batch_size=None) -> StepInfo:
        hyper = CommonHyper(self.lr * scale, self.weight_decay, self.eps)
        deltas, eff_lr = prodigy.prodigy_step(self.blocks, grads, self.state, hyper, self.beta1, self.beta2)
        return StepInfo(global_norm(deltas.values()), eff_lr, self.state.d)


class Mars(_Hybrid):
    name = "mars-adamw"
    variant = "adamw"
    defaults = {
        "lr": 3e-3, "lr_1d": 1e-3, "weight_decay": 0.0, "weight_decay_1d": None, "eps": 1e-8,
        "beta1": 0.95, "beta2": 0.99, "eta": 0.025, **_BETAS_1D,
    }
    #: only the shampoo variant orthogonalizes, so only it takes the Newton-Schulz keys
    ns_iters, ns_a, ns_b, ns_c = _NS.values()
    state_type = mars.MarsState
    keys_1d = ("lr_1d", "weight_decay_1d", "beta1_1d", "beta2_1d")

    def __init__(self, blocks, **params):
        super().__init__(blocks, **params)
        if self.weight_decay_1d is None:
            self.weight_decay_1d = self.weight_decay

    def _rule(self, block, grad, state, hyper):
        coeffs = (self.ns_a, self.ns_b, self.ns_c)
        return mars.mars_step(
            block, grad, state, hyper, self.variant, self.beta1, self.beta2, self.eta, self.ns_iters, coeffs
        )


class MarsLion(Mars):
    name = "mars-lion"
    variant = "lion"


class MarsShampoo(Mars):
    name = "mars-shampoo"
    variant = "shampoo"
    defaults = {**Mars.defaults, **_NS}


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

    An unknown ``name`` raises :class:`ConfigurationError` listing the valid
    ones; keys outside the rule's ``defaults`` raise it naming the rule, the
    key and the accepted keys.
    """
    if name not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer {name!r}; valid names: {', '.join(OPTIMIZER_NAMES)}")
    kwargs = dict(params or {})
    if name in _NEEDS_TOTAL_STEPS:
        kwargs["total_steps"] = total_steps
    return OPTIMIZERS[name](blocks, **kwargs)
