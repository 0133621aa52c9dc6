"""Learning-rate schedules and the two-EMA mixing schedulers.

All families share a linear warmup from zero: the update at step t <= T_warmup
uses gamma_max * t / T_warmup, so the first update (t=1) is already nonzero
and lr(T_warmup) = gamma_max exactly. After warmup:

* ``constant`` holds gamma_max,
* ``cosine`` decays to gamma_end = final_lr_factor * gamma_max,
* ``linear`` decays affinely to gamma_end,
* ``wsd`` holds gamma_max until the final cooldown fraction of the run, then
  follows a (1 - sqrt(x)) shape down to gamma_end.

The mixing schedulers ramp the slow-EMA weight linearly and interpolate its
decay rate in log space between beta_start and beta3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError

FAMILIES = ("constant", "cosine", "linear", "wsd")

#: Default final-LR factors; linear needs a deeper decay than cosine/wsd.
DEFAULT_FINAL_FACTOR = {"constant": 1.0, "cosine": 0.01, "linear": 0.001, "wsd": 0.01}


@dataclass(frozen=True)
class ScheduleSpec:
    """One learning-rate schedule.

    Args:
        family: one of ``constant``, ``cosine``, ``linear``, ``wsd``.
        gamma_max: peak learning rate (> 0 and finite).
        total_steps: run length T; valid steps are 1..T.
        warmup_steps: linear warmup length (< T; for wsd, at most the cooldown start).
        final_lr_factor: gamma_end = factor * gamma_max; defaults per family.
        wsd_cooldown_fraction: fraction of T spent cooling down (wsd only).
    """

    family: str
    gamma_max: float
    total_steps: int
    warmup_steps: int = 0
    final_lr_factor: float | None = None
    wsd_cooldown_fraction: float = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractViolationError(f"unknown schedule family {self.family!r}")
        if not 0.0 < self.gamma_max < math.inf:
            raise ContractViolationError(f"gamma_max must be positive and finite, got {self.gamma_max!r}")
        if self.total_steps < 1:
            raise ContractViolationError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ContractViolationError("need 0 <= warmup_steps < total_steps")
        factor = self.final_factor
        if not 0.0 <= factor <= 1.0:
            raise ContractViolationError("final_lr_factor must lie in [0, 1]")
        if self.family == "wsd":
            if not 0.0 < self.wsd_cooldown_fraction <= 1.0:
                raise ContractViolationError("wsd_cooldown_fraction must lie in (0, 1]")
            if self.wsd_cooldown_fraction * self.total_steps < 1.0:
                raise ContractViolationError("wsd cooldown must cover at least one step")
            # a warmup that ran into the cooldown would drop the lr from gamma_max in one step
            if self.warmup_steps > self.cooldown_start:
                raise ContractViolationError(
                    f"wsd warmup_steps ({self.warmup_steps}) must not exceed the cooldown start "
                    f"(1 - wsd_cooldown_fraction) * total_steps = {self.cooldown_start!r}"
                )

    @property
    def final_factor(self) -> float:
        if self.final_lr_factor is None:
            return DEFAULT_FINAL_FACTOR[self.family]
        return self.final_lr_factor

    @property
    def gamma_end(self) -> float:
        return self.final_factor * self.gamma_max

    @property
    def cooldown_start(self) -> float:
        """The step after which ``wsd`` cools down, (1 - wsd_cooldown_fraction) * T."""
        return (1.0 - self.wsd_cooldown_fraction) * self.total_steps


def lr_at(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at step t, for 1 <= t <= total_steps."""
    if not 1 <= t <= spec.total_steps:
        raise ContractViolationError(f"step {t} outside 1..{spec.total_steps}")
    if t <= spec.warmup_steps:
        return spec.gamma_max * t / spec.warmup_steps
    if spec.family == "constant":
        return spec.gamma_max
    gmax, gend = spec.gamma_max, spec.gamma_end
    if spec.family == "cosine":
        frac = (t - spec.warmup_steps) / (spec.total_steps - spec.warmup_steps)
        return gend + 0.5 * (gmax - gend) * (1.0 + math.cos(math.pi * frac))
    if spec.family == "linear":
        frac = (t - spec.warmup_steps) / (spec.total_steps - spec.warmup_steps)
        return gmax + (gend - gmax) * frac
    # wsd: constant plateau, then (1 - sqrt(x)) cooldown
    cooldown_start = spec.cooldown_start
    if t <= cooldown_start:
        return gmax
    x = (t - cooldown_start) / (spec.total_steps - cooldown_start)
    return gend + (gmax - gend) * (1.0 - math.sqrt(x))


@dataclass(frozen=True)
class EmaScheduleSpec:
    """Parameters of the slow-EMA mixing schedulers.

    alpha ramps linearly over t_alpha steps; beta3 is interpolated in log
    space from beta_start up to beta3 over t_beta3 steps.
    """

    alpha: float
    beta3: float
    beta_start: float
    t_alpha: int
    t_beta3: int

    def __post_init__(self):
        if not self.alpha >= 0.0:  # a NaN alpha fails this too
            raise ContractViolationError("alpha must be >= 0")
        for name, b in (("beta3", self.beta3), ("beta_start", self.beta_start)):
            if not 0.0 < b < 1.0:
                raise ContractViolationError(f"{name} must lie in (0, 1)")
        if self.t_alpha < 1 or self.t_beta3 < 1:
            raise ContractViolationError("scheduler horizons must be >= 1")


def ademamix_alpha_at(spec: EmaScheduleSpec, t: int) -> float:
    """min(t * alpha / t_alpha, alpha): linear ramp saturating at alpha."""
    if t < 1:
        raise ContractViolationError("t must be >= 1")
    return min(t * spec.alpha / spec.t_alpha, spec.alpha)


def ademamix_beta3_at(spec: EmaScheduleSpec, t: int) -> float:
    """Log-space interpolation from beta_start to beta3, clamped at beta3."""
    if t < 1:
        raise ContractViolationError("t must be >= 1")
    if t >= spec.t_beta3:
        return spec.beta3
    frac = t / spec.t_beta3
    log_start = math.log(spec.beta_start)
    log_end = math.log(spec.beta3)
    value = math.exp(log_start * log_end / ((1.0 - frac) * log_end + frac * log_start))
    return min(value, spec.beta3)
