"""Learning-rate-free Adam: the step size d is inferred online.

Two EMA sequences track the correlation between gradients and the distance
travelled from the start (r) and the accumulated weighted gradients (s); the
multiplier grows as d <- max(d, r / ||s||_1) and never decreases. The
effective learning rate of a step is gamma_t * d_t, which is what gets
logged. d, r, and t are scalars over the whole parameter vector, so this
rule operates on the block group as a unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from .base import check_beta, check_finite_grad, decoupled_update, ema_update

D_INIT = 1e-6


@dataclass
class ProdigyState:
    """The step-size estimate d and its numerator r, per-block s, m, v and start point, and the step counter."""

    d: float
    r: float
    s: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    x0: dict[str, np.ndarray]  # snapshot of the initial parameters
    t: int = 0
    bias_correction: bool = True

    @classmethod
    def for_blocks(cls, blocks: list[ParamBlock], d0: float = D_INIT, bias_correction: bool = True) -> "ProdigyState":
        if not (math.isfinite(d0) and d0 > 0.0):
            raise ContractViolationError(f"d0 must be finite and > 0, got {d0!r}")
        return cls(
            d=d0,
            r=0.0,
            s={b.name: np.zeros(b.shape) for b in blocks},
            m={b.name: np.zeros(b.shape) for b in blocks},
            v={b.name: np.zeros(b.shape) for b in blocks},
            x0={b.name: b.values.copy() for b in blocks},
            bias_correction=bias_correction,
        )


def prodigy_step(
    blocks: list[ParamBlock],
    grads: dict[str, np.ndarray],
    state: ProdigyState,
    hyper: CommonHyper,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> tuple[dict[str, np.ndarray], float]:
    """One update over all blocks; returns (deltas, effective learning rate)."""
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    state.t += 1
    t = state.t
    d = state.d
    if state.bias_correction:
        gamma_t = hyper.gamma * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
    else:
        gamma_t = hyper.gamma
    sqb2 = math.sqrt(beta2)
    dot = s_norm1 = 0.0
    for block in blocks:
        g = grads[block.name]
        check_finite_grad(g)
        dot += float(np.add.reduce(g * (state.x0[block.name] - block.values), axis=None))
        ema_update(state.m[block.name], beta1, d, g)
        v, s = state.v[block.name], state.s[block.name]
        v *= beta2
        v += (1.0 - beta2) * d * d * g * g
        s *= sqb2
        s += (1.0 - sqb2) * gamma_t * d * d * g
        s_norm1 += float(np.add.reduce(np.abs(s), axis=None))
    state.r = sqb2 * state.r + (1.0 - sqb2) * gamma_t * d * d * dot
    # ||s||_1 == 0 implies r == 0 as well; d then simply stays put
    d_next = max(d, state.r / s_norm1) if s_norm1 > 0.0 else d
    deltas: dict[str, np.ndarray] = {}
    for block in blocks:
        m, v, s = state.m[block.name], state.v[block.name], state.s[block.name]
        direction = m / (np.sqrt(v) + d * hyper.eps)
        # -(gamma_t * d) rounds exactly as (-gamma_t) * d: IEEE rounding is sign-symmetric
        deltas[block.name] = decoupled_update(block, direction, gamma_t * d, hyper.lam, "prodigy", m, v, s)
    state.d = d_next
    return deltas, gamma_t * d
