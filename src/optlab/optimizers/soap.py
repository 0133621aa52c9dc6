"""Adam in a slowly rotating eigenbasis (Shampoo-style preconditioning).

Matrix blocks keep two orthonormal bases Q_l (rows x rows) and Q_r
(cols x cols), initialized from the eigenbases of the first observed
gradient's Gram matrices; that first gradient is consumed by the
initialization and moves nothing, mirroring how the bases come from a
separate initial batch. Each subsequent step rotates the gradient and
momentum into the basis, runs the Adam normalization there, and rotates the
update back. The covariance statistics l and r are EMA-updated every step
and the bases are refreshed by QR every ``precond_freq`` steps. With both
bases frozen at identity the rule reduces exactly to AdamW.

Bias correction divides the rotated momentum and the second moment by the
usual (1 - beta^t) factors, with epsilon added outside, so that the
identity-basis reduction matches AdamW at any epsilon.

``soap_step`` takes matrix blocks only; the engine routes 1-D blocks, and
matrices with a side over ``precond_max_dim``, to AdamW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blocks import CommonHyper, ParamBlock
from ..errors import ContractViolationError, DegenerateInputError, NumericalFailureError
from ..linalg import qr_orthonormal, sym_eigenbasis
from .base import check_beta, check_finite_buffers, check_finite_grad, check_finite_values


@dataclass
class SoapState:
    """Rotating-basis state for one matrix block."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None  # second moment, kept in the rotated basis
    q_l: np.ndarray | None = None
    q_r: np.ndarray | None = None
    l_stat: np.ndarray | None = None
    r_stat: np.ndarray | None = None
    precond_freq: int | None = 10
    bias_correction: bool = True
    t: int = 0

    @classmethod
    def for_block(
        cls,
        block: ParamBlock,
        precond_freq: int | None = 10,
        bias_correction: bool = True,
        identity_init: bool = False,
    ) -> "SoapState":
        if precond_freq is not None and precond_freq < 1:
            raise ContractViolationError(f"precond_freq must be >= 1 or None, got {precond_freq}")
        rows, cols = block.shape
        state = cls(
            m=np.zeros(block.shape),
            v=np.zeros(block.shape),
            l_stat=np.zeros((rows, rows)),
            r_stat=np.zeros((cols, cols)),
            precond_freq=precond_freq,
            bias_correction=bias_correction,
        )
        if identity_init:
            state.q_l = np.eye(rows)
            state.q_r = np.eye(cols)
        return state


def _init_preconditioners(state: SoapState, grad: np.ndarray) -> None:
    left = grad @ grad.T
    right = grad.T @ grad
    state.q_l = sym_eigenbasis((left + left.T) / 2.0)
    state.q_r = sym_eigenbasis((right + right.T) / 2.0)


def soap_step(
    block: ParamBlock,
    grad: np.ndarray,
    state: SoapState,
    hyper: CommonHyper,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> np.ndarray:
    """One rotated-Adam update on a matrix block."""
    check_finite_grad(grad)
    check_beta("beta1", beta1)
    check_beta("beta2", beta2)
    if state.q_l is None:
        _init_preconditioners(state, grad)
        return np.zeros(block.shape)
    state.t += 1
    t = state.t
    g_rot = state.q_l.T @ grad @ state.q_r
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    m_rot = state.q_l.T @ state.m @ state.q_r
    state.v = beta2 * state.v + (1.0 - beta2) * g_rot * g_rot
    if state.bias_correction:
        num = m_rot / (1.0 - beta1**t)
        den = np.sqrt(state.v / (1.0 - beta2**t)) + hyper.eps
    else:
        num = m_rot
        den = np.sqrt(state.v) + hyper.eps
    update = state.q_l @ (num / den) @ state.q_r.T
    delta = -hyper.gamma * (update + hyper.lam * block.values)
    block.values += delta
    state.l_stat = beta2 * state.l_stat + (1.0 - beta2) * (grad @ grad.T)
    state.r_stat = beta2 * state.r_stat + (1.0 - beta2) * (grad.T @ grad)
    freq = state.precond_freq
    # refreshes start once the stats have accumulated freq gradients; the
    # step-1 stats are nearly rank-1 and would make the QR degenerate
    if freq is not None and t > 1 and t % freq == 1 % freq:
        try:
            new_q_l = qr_orthonormal(state.l_stat @ state.q_l)
            new_q_r = qr_orthonormal(state.r_stat @ state.q_r)
        except DegenerateInputError:
            # low-rank stats (small batches early in training): keep the
            # stale basis and try again at the next refresh
            pass
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"preconditioner refresh failed at step {t}: {exc}") from exc
        else:
            state.q_l, state.q_r = new_q_l, new_q_r
    check_finite_buffers("soap", state.m, state.v, state.l_stat, state.r_stat)
    check_finite_values(block)
    return delta
