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

    ``lanes`` describes the layout of ``values``: 0 for one run's block, or the
    number of replicate runs whose values lie stacked on a leading lane axis
    (a lane-stacked problem's ``init_blocks``). Row ``i`` of such a block is
    lane ``i``'s block.
    """

    name: str
    values: np.ndarray
    role: str = "vector"
    lanes: int = 0

    def __post_init__(self):
        if self.role not in ROLES:
            raise ContractViolationError(f"unknown role {self.role!r} for block {self.name!r}")
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.lanes and self.values.shape[:1] != (self.lanes,):
            raise ContractViolationError(
                f"block {self.name!r} of {self.lanes} lanes needs them on its first axis, got shape {self.values.shape}"
            )
        ndim = self.values.ndim - (1 if self.lanes else 0)
        if self.role == "matrix" and ndim != 2:
            raise ContractViolationError(f"matrix block {self.name!r} needs exactly 2 dimensions, got {ndim}")

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


#: The axes after the lane axis of a lane-stacked array, by its ``ndim`` (numpy allows at most 64).
_AFTER_LANE = tuple(tuple(range(1, ndim)) for ndim in range(65))


def global_norm(arrays, lanes: int = 0):
    """l2 norm of the concatenation of all arrays.

    For arrays that stack ``lanes`` replicate runs on their first axis it is
    each lane's norm, one float64 per lane (0.0 for no arrays): the same
    squares summed by the same reduction per block and added block by block,
    so lane ``i``'s norm is, bit for bit, the norm of the arrays' row ``i``.
    """
    if lanes:
        total = None
        for a in arrays:
            squares = np.add.reduce(np.multiply(a, a), axis=_AFTER_LANE[a.ndim])
            total = squares if total is None else total + squares
        return np.zeros(lanes) if total is None else np.sqrt(total)
    total = 0.0
    for a in arrays:
        total += float(np.add.reduce(np.multiply(a, a), axis=None))
    return math.sqrt(total)
