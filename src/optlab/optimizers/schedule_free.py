"""Schedule-free AdamW: iterate averaging instead of a decaying schedule.

The method keeps a fast sequence z and an averaged sequence x (stored in the
blocks). Gradients must be evaluated at the interpolation
y = (1 - beta1) * z + beta1 * x -- that is an interface obligation on the
caller, exposed through :func:`sf_eval_point`. The averaging weights
c_t = gamma_t^2 / sum(gamma_i^2) make x a convex combination of all past z
iterates, with c_1 = 1 so x_1 = z_1 exactly.

This rule operates on the whole block group at once because gamma_t and c_t
are scalars shared across blocks. Its decoupled decay acts on the fast
sequence z, and the parameters move to an average of x and z, so it commits
on its own rather than through ``base.decoupled_update``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from .base import check_beta, check_finite_buffers, check_finite_grad, check_finite_values, ema_update


@dataclass
class ScheduleFreeState:
    """Fast iterates z and second moments v per block; shared scalar history."""

    z: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    warmup_steps: int
    lr_sq_sum: float = 0.0
    t: int = 0

    @classmethod
    def for_blocks(cls, blocks: list[ParamBlock], warmup_steps: int) -> "ScheduleFreeState":
        if warmup_steps < 0:
            raise ContractViolationError("warmup_steps must be >= 0")
        return cls(
            z={b.name: b.values.copy() for b in blocks},
            v={b.name: np.zeros(b.shape) for b in blocks},
            warmup_steps=warmup_steps,
        )


def sf_eval_point(blocks: list[ParamBlock], state: ScheduleFreeState, beta1: float = 0.9) -> dict[str, np.ndarray]:
    """Where the next gradient must be evaluated: y = (1 - beta1) z + beta1 x."""
    return {b.name: (1.0 - beta1) * state.z[b.name] + beta1 * b.values for b in blocks}


def sfadamw_step(
    blocks: list[ParamBlock],
    grads: dict[str, np.ndarray],
    state: ScheduleFreeState,
    hyper: CommonHyper,
    beta1: float = 0.9,
    beta2: float = 0.9999,
) -> dict[str, np.ndarray]:
    """One schedule-free update over all blocks; grads were taken at y."""
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    state.t += 1
    t = state.t
    warm = min(1.0, t / state.warmup_steps) if state.warmup_steps > 0 else 1.0
    gamma_t = hyper.gamma * math.sqrt(1.0 - beta2**t) * warm
    state.lr_sq_sum += gamma_t * gamma_t
    c = gamma_t * gamma_t / state.lr_sq_sum if state.lr_sq_sum > 0.0 else 1.0
    deltas: dict[str, np.ndarray] = {}
    for block in blocks:
        g = grads[block.name]
        check_finite_grad(g)
        z, v = state.z[block.name], state.v[block.name]
        y = (1.0 - beta1) * z + beta1 * block.values
        ema_update(v, beta2, g, g)
        z -= gamma_t * (g / (np.sqrt(v) + hyper.eps) + hyper.lam * y)
        new_x = (1.0 - c) * block.values + c * z
        deltas[block.name] = new_x - block.values
        np.copyto(block.values, new_x)
        check_finite_buffers("sf-adamw", v, z)
        check_finite_values(block)
    return deltas
