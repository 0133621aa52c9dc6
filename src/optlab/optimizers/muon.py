"""Matrix-momentum updates orthogonalized by Newton-Schulz iteration.

``muon_step`` applies the orthogonalized momentum to a matrix block, with no
weight decay there, faithful to the original scheme. ``dmuon_step`` is the
variant that takes weight decay and rescales the orthogonalized update to
AdamW-like RMS, 0.2 * sqrt(max(rows, cols)), so that one learning rate can
serve all groups. Both take matrix blocks only; the engines route every other
block to AdamW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError
from ..linalg import as_matrix, frobenius_norm
from .base import check_beta, check_finite_buffers, check_finite_grad, check_finite_values, decoupled_update

#: Quintic iteration coefficients tuned for fast convergence of the top
#: singular values; the fixed band they converge to is what the regression
#: tests pin down.
NS_COEFFS = (3.4445, -4.7750, 2.0315)
NS_ITERS = 5

#: RMS-matching constant for the shared-learning-rate variant.
RMS_FACTOR = 0.2


def check_ns_coeffs(coeffs) -> None:
    """Each Newton-Schulz coefficient must be finite; a NaN or infinite one would poison the first update."""
    for name, value in zip(("ns_a", "ns_b", "ns_c"), coeffs):
        if not math.isfinite(value):
            raise ContractViolationError(f"{name} must be finite, got {value!r}")


def newton_schulz_orthogonalize(g, iters: int = NS_ITERS, coeffs=NS_COEFFS) -> np.ndarray:
    """Drive the singular values of g toward 1, approximating its polar factor.

    The iterate is normalized to unit Frobenius norm, then run through
    w <- a*w + b*(w w^T) w + c*(w w^T)^2 w. Wide inputs are processed as
    their transpose so the Gram matrix stays on the small side.

    With s = w w^T, y = s w and z = s y, each iteration scales y and z in
    place and sums into y, the C-ordered product: ``(b*y + a*w) + c*z``, the
    rounding of the expression above, with no temporaries but ``a*w``. On a
    tall input w is a transposed view, and summing into it instead would
    change both the bits and the strides of the result. ``g`` is only read.
    """
    g = as_matrix(g)
    if iters < 1:
        raise ContractViolationError("iters must be >= 1")
    norm = frobenius_norm(g)
    if norm == 0.0:
        raise ContractViolationError("newton_schulz_orthogonalize needs a nonzero matrix")
    a, b, c = coeffs
    x = g / norm
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for _ in range(iters):
        s = x @ x.T
        y = s @ x
        z = s @ y
        y *= b
        y += a * x
        z *= c
        y += z
        x = y
    return x.T if transposed else x


@dataclass
class MuonState:
    """Momentum buffer of one matrix block."""

    m: np.ndarray

    @classmethod
    def for_block(cls, block: ParamBlock) -> "MuonState":
        return cls(np.zeros(block.shape))


def _nesterov_momentum(state: MuonState, grad: np.ndarray, beta: float) -> np.ndarray:
    """``m <- beta * m + g`` in place; returns ``beta * m + g`` in a new array."""
    state.m *= beta
    state.m += grad
    d = beta * state.m
    d += grad
    return d


def muon_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: MuonState,
    hyper: CommonHyper,
    beta: float = 0.95,
    ns_iters: int = NS_ITERS,
    ns_coeffs=NS_COEFFS,
) -> np.ndarray:
    """Orthogonalized Nesterov momentum on a matrix block: x <- x - gamma * NS(d).

    No weight decay is applied, so the parameters are independent of
    ``hyper.lam``; with nothing to decay, the step commits on its own rather
    than through ``decoupled_update``.
    """
    check_finite_grad(grad)
    check_beta("beta", beta, allow_zero=True)
    check_ns_coeffs(ns_coeffs)
    d = _nesterov_momentum(state, grad, beta)
    if frobenius_norm(d) == 0.0:
        return np.zeros(block.shape)
    delta = newton_schulz_orthogonalize(d, ns_iters, ns_coeffs)
    delta *= -hyper.gamma
    block.values += delta
    check_finite_buffers("muon", state.m)
    check_finite_values(block)
    return delta


def dmuon_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: MuonState,
    hyper: CommonHyper,
    beta: float = 0.95,
    rms_factor: float = RMS_FACTOR,
    ns_iters: int = NS_ITERS,
    ns_coeffs=NS_COEFFS,
) -> np.ndarray:
    """Shared-gamma variant: RMS-matched orthogonalized update plus weight decay.

    x <- x - gamma * (0.2 * sqrt(max(rows, cols)) * NS(d) + lam * x)
    """
    check_finite_grad(grad)
    check_beta("beta", beta, allow_zero=True)
    if not rms_factor > 0.0:  # a NaN factor fails this too
        raise ContractViolationError(f"rms_factor must be positive, got {rms_factor!r}")
    if rms_factor == math.inf:
        raise ContractViolationError(f"rms_factor must be finite, got {rms_factor!r}")
    check_ns_coeffs(ns_coeffs)
    d = _nesterov_momentum(state, grad, beta)
    scale = rms_factor * float(np.sqrt(max(block.shape)))
    if frobenius_norm(d) == 0.0:
        ortho = np.zeros(block.shape)
    else:
        ortho = newton_schulz_orthogonalize(d, ns_iters, ns_coeffs)
    ortho *= scale
    return decoupled_update(block, ortho, hyper.gamma, hyper.lam, "dmuon", state.m)
