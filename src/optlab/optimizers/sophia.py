"""Clipped second-order update with a Gauss-Newton-Bartlett diagonal estimate.

The diagonal preconditioner h is refreshed every ``estimator_freq`` steps from
the gradient of the loss against labels resampled from the model's own
softmax: h_hat = B * g_hat * g_hat. The update follows the corrected rule

    x <- x - gamma * (sign(m) * min(|m| / (rho * h + eps), 1) + lam * x)

which clamps at a pure sign step whenever the curvature estimate is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from .base import check_beta, check_finite_buffers, check_finite_grad, check_finite_values


@dataclass
class SophiaState:
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
    if rho <= 0.0:
        raise ContractViolationError(f"rho must be positive, got {rho}")
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    if sophia_wants_estimate(state.t, estimator_freq):
        if resampled_grad is None or batch_size is None:
            raise ContractViolationError(
                f"step {state.t} refreshes the estimate: resampled_grad and batch_size required"
            )
        check_finite_grad(resampled_grad)
        h_hat = batch_size * resampled_grad * resampled_grad
        state.h = beta2 * state.h + (1.0 - beta2) * h_hat
    ratio = np.minimum(np.abs(state.m) / (rho * state.h + hyper.eps), 1.0)
    delta = -hyper.gamma * (np.sign(state.m) * ratio + hyper.lam * block.values)
    block.values += delta
    check_finite_buffers("sophia", state.m, state.h)
    check_finite_values(block)
    return delta
