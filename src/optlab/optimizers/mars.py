"""Variance-reduced updates: the gradient is corrected by a scaled difference
from the previous step's gradient before feeding the moments.

c_t = g_t + eta * (beta1 / (1 - beta1)) * (g_t - g_{t-1})

The corrected gradient is clipped to unit l2 norm for the adamw and lion
variants (not for shampoo, which orthogonalizes the momentum instead).
``mars_step`` takes matrix blocks only; the engines route every other block
to AdamW with its own learning rate, following the usual hybrid routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from ..linalg import frobenius_norm
from .base import adam_denominator, check_beta, check_finite_grad, decoupled_update, ema_update
from .muon import NS_COEFFS, NS_ITERS, check_ns_coeffs, newton_schulz_orthogonalize

VARIANTS = ("adamw", "lion", "shampoo")


@dataclass
class MarsState:
    """Last gradient and inner moments of one matrix block."""

    g_prev: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_block(cls, block: ParamBlock) -> "MarsState":
        return cls(np.zeros(block.shape), np.zeros(block.shape), np.zeros(block.shape))


def mars_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: MarsState,
    hyper: CommonHyper,
    variant: str = "adamw",
    beta1: float = 0.95,
    beta2: float = 0.99,
    eta: float = 0.025,
    ns_iters: int = NS_ITERS,
    ns_coeffs=NS_COEFFS,
) -> np.ndarray:
    """One variance-reduced update on a matrix block."""
    if variant not in VARIANTS:
        raise ContractViolationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    check_finite_grad(grad)
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ContractViolationError(f"eta must be finite and >= 0, got {eta!r}")
    check_ns_coeffs(ns_coeffs)
    state.t += 1
    t = state.t
    c = grad - state.g_prev
    c *= eta * (beta1 / (1.0 - beta1))
    c += grad
    if variant in ("adamw", "lion"):
        c_norm = frobenius_norm(c)
        if c_norm > 1.0:
            c /= c_norm
    ema_update(state.m, beta1, c)
    if variant == "adamw":
        ema_update(state.v, beta2, c, c)
        direction = state.m / (1.0 - beta1**t)
        direction /= adam_denominator(state.v, 1.0 - beta2**t, hyper.eps)
    elif variant == "lion":
        direction = np.sign(state.m)
    else:  # shampoo: sign-spectrum step U V^T via Newton-Schulz
        if frobenius_norm(state.m) == 0.0:
            direction = np.zeros(block.shape)
        else:
            direction = newton_schulz_orthogonalize(state.m, ns_iters, ns_coeffs)
    np.copyto(state.g_prev, grad)
    return decoupled_update(block, direction, hyper.gamma, hyper.lam, "mars", state.m, state.v)
