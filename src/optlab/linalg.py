"""Dense float64 matrix kernels with fixed sign and ordering conventions.

Matrices are 2-D C-contiguous float64 numpy arrays. The QR and eigenbasis
routines pin down the representative that LAPACK leaves arbitrary (column
signs, eigenvalue order) so that trajectories built on top of them are
bit-reproducible: rotating-basis optimizers depend on which orthonormal
basis you pick, not just on the subspace it spans.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, NumericalFailureError

_SYM_RTOL = 1e-10
_RANK_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return np.ascontiguousarray(a)


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolationError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def frobenius_norm(a) -> float:
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a * a)))


def qr_orthonormal(a) -> np.ndarray:
    """Q factor with orthonormal columns and nonnegative R diagonal.

    Requires rows >= cols and full column rank; rank deficiency raises
    :class:`DegenerateInputError` because the thin Q is no longer unique.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    if rows < cols:
        raise ContractViolationError(f"qr_orthonormal needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diag(r)
    scale = np.max(np.abs(diag)) if cols else 0.0
    if cols and np.min(np.abs(diag)) <= _RANK_RTOL * max(scale, 1.0):
        raise DegenerateInputError("rank-deficient input to qr_orthonormal")
    signs = np.sign(diag)
    return np.ascontiguousarray(q * signs)


def sym_eigenbasis(a) -> np.ndarray:
    """Orthonormal eigenvectors of a symmetric matrix, as columns.

    Columns are ordered by descending eigenvalue (stable for ties) and each
    column's largest-magnitude component is made positive, so the returned
    basis is a deterministic function of the input.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    if rows != cols:
        raise ContractViolationError(f"sym_eigenbasis needs a square matrix, got {a.shape}")
    asym = np.max(np.abs(a - a.T)) if rows else 0.0
    scale = np.max(np.abs(a)) if rows else 0.0
    if asym > _SYM_RTOL * max(scale, 1.0):
        raise ContractViolationError("input is not symmetric to 1e-10 relative tolerance")
    try:
        eigvals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(-eigvals, kind="stable")
    vecs = vecs[:, order]
    for j in range(cols):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return np.ascontiguousarray(vecs)


def svd_singular_values(a) -> np.ndarray:
    """Descending singular values computed from the eigenvalues of a^T a."""
    a = as_matrix(a)
    gram = a.T @ a
    try:
        eigvals = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed to converge: {exc}") from exc
    return np.sqrt(np.clip(eigvals[::-1], 0.0, None))
