"""Sign-based update rules: Lion and Signum.

Both take steps of fixed magnitude gamma per coordinate, so their
trajectories are invariant under positive rescaling of the whole gradient
sequence (with lam = 0). sign(0) = 0 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from .base import check_beta, check_finite_grad, decoupled_update, ema_update


@dataclass
class SignState:
    """Single momentum buffer."""

    m: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "SignState":
        return cls(np.zeros(shape))


def lion_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: SignState,
    hyper: CommonHyper,
    beta1: float = 0.9,
    beta2: float = 0.99,
) -> np.ndarray:
    """Step along sign(beta1 * m + (1 - beta1) * g); the EMA updates afterwards."""
    check_finite_grad(grad)
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    direction = np.sign(beta1 * state.m + (1.0 - beta1) * grad)
    ema_update(state.m, beta2, grad)
    state.t += 1
    return decoupled_update(block, direction, hyper.gamma, hyper.lam, "lion", state.m)


def signum_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: SignState,
    hyper: CommonHyper,
    beta: float = 0.95,
    nesterov: bool = True,
    dampening: float = 0.0,
    coupled_wd: bool = False,
) -> np.ndarray:
    """signSGD with momentum, in the practical form m <- beta * m + (1 - tau) * g.

    With the default Nesterov blend the step follows sign(beta * m + g);
    nesterov=False uses sign(m) instead, and dampening=beta recovers the EMA
    momentum of the textbook variant. ``coupled_wd`` folds lam * x into the
    gradient *before* the sign (the classic l2 mistake); it exists only to
    demonstrate how that corrupts the update direction, and is off by default.
    """
    check_finite_grad(grad)
    check_beta("beta", beta, allow_zero=True)
    if not 0.0 <= dampening < 1.0:
        raise ContractViolationError(f"dampening must lie in [0, 1), got {dampening}")
    if nesterov and (beta <= 0.0 or dampening != 0.0):
        raise ContractViolationError("nesterov momentum requires beta > 0 and zero dampening")
    g = grad + hyper.lam * block.values if coupled_wd else grad
    state.m *= beta
    state.m += (1.0 - dampening) * g
    direction = np.sign(g + beta * state.m) if nesterov else np.sign(state.m)
    state.t += 1
    # coupled decay already sits inside the sign; the update then shrinks nothing
    return decoupled_update(block, direction, hyper.gamma, 0.0 if coupled_wd else hyper.lam, "signum", state.m)
