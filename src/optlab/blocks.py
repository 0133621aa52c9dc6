"""Parameter blocks and the hyperparameters shared by every update rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

ROLES = ("matrix", "vector", "scalar", "embedding", "output_head")


@dataclass
class ParamBlock:
    """One named parameter tensor plus the role that drives optimizer routing.

    Hybrid methods send ``matrix`` blocks through their matrix path; vectors,
    scalars, embeddings, and output heads are treated as the 1-D group.
    A float64 C-contiguous ``values`` array is kept without a copy, and every
    step updates ``values`` in place, so a step writes into the caller's array.
    """

    name: str
    values: np.ndarray
    role: str = "vector"

    def __post_init__(self):
        if self.role not in ROLES:
            raise ContractViolationError(f"unknown role {self.role!r} for block {self.name!r}")
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.role == "matrix" and self.values.ndim != 2:
            raise ContractViolationError(
                f"matrix block {self.name!r} needs exactly 2 dimensions, got {self.values.ndim}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def matrix_routed(self) -> bool:
        return self.role == "matrix"


@dataclass(frozen=True)
class CommonHyper:
    """Per-step learning rate, decoupled weight decay, and epsilon."""

    gamma: float
    lam: float = 0.0
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ContractViolationError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ContractViolationError("lam must be finite and >= 0")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ContractViolationError("eps must be finite and > 0")


def global_norm(arrays) -> float:
    """l2 norm of the concatenation of all arrays."""
    total = 0.0
    for a in arrays:
        total += float(np.add.reduce(np.multiply(a, a), axis=None))
    return math.sqrt(total)
