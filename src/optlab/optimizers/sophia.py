"""Clipped second-order update with a Gauss-Newton-Bartlett diagonal estimate.

The diagonal preconditioner h is refreshed every ``estimator_freq`` steps from
the gradient of the loss against labels resampled from the model's own
softmax: h_hat = B * g_hat * g_hat. The update follows the corrected rule

    x <- x - gamma * (sign(m) * min(|m| / (rho * h + eps), 1) + lam * x)

which clamps at a pure sign step whenever the curvature estimate is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from .base import check_beta, check_finite_grad, decoupled_update, ema_update


@dataclass
class SophiaState:
    """Momentum, the Hessian-diagonal EMA, and the step counter."""

    m: np.ndarray
    h: np.ndarray  # Hessian-diagonal EMA, elementwise >= 0
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "SophiaState":
        return cls(np.zeros(shape), np.zeros(shape))


def sophia_wants_estimate(t_next: int, estimator_freq: int) -> bool:
    """True when step ``t_next`` refreshes the diagonal estimate."""
    if estimator_freq < 1:
        raise ContractViolationError(f"estimator_freq must be >= 1, got {estimator_freq}")
    return t_next % estimator_freq == 1 % estimator_freq


def sophia_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: SophiaState,
    hyper: CommonHyper,
    beta1: float = 0.9,
    beta2: float = 0.999,
    rho: float = 0.04,
    estimator_freq: int = 10,
    resampled_grad: np.ndarray | None = None,
    batch_size: int | None = None,
) -> np.ndarray:
    """One update; on refresh steps the resampled gradient must be supplied."""
    check_finite_grad(grad)
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    if not rho > 0.0:  # a NaN rho fails this too
        raise ContractViolationError(f"rho must be positive, got {rho}")
    if rho == math.inf:  # would clamp every update to 0
        raise ContractViolationError(f"rho must be finite, got {rho}")
    state.t += 1
    ema_update(state.m, beta1, grad)
    if sophia_wants_estimate(state.t, estimator_freq):
        if resampled_grad is None or batch_size is None:
            raise ContractViolationError(
                f"step {state.t} refreshes the estimate: resampled_grad and batch_size required"
            )
        check_finite_grad(resampled_grad)
        h_hat = batch_size * resampled_grad
        h_hat *= resampled_grad
        ema_update(state.h, beta2, h_hat)
    den = rho * state.h
    den += hyper.eps
    ratio = np.abs(state.m)
    ratio /= den
    np.minimum(ratio, 1.0, out=ratio)
    direction = np.sign(state.m)
    direction *= ratio
    return decoupled_update(block, direction, hyper.gamma, hyper.lam, "sophia", state.m, state.h)
