"""optlab: a desk-scale optimizer laboratory.

Fourteen update rules (Adam family, sign methods, orthogonalized and
rotating-basis matrix methods, clipped second-order, schedule-free,
learning-rate-free, variance-reduced), learning-rate schedules, synthetic
problems with analytic gradients, and a deterministic training harness with
benchmark and timing tools.
"""

from .blocks import CommonHyper, ParamBlock, global_norm
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    NumericalFailureError,
    PoisonedStateError,
    UnsupportedEstimatorError,
)
from .harness import RunRecord, RunRow, clip_gradients, run, sweep, time_optimizer
from .linalg import frobenius_norm, matmul, qr_orthonormal, svd_singular_values, sym_eigenbasis
from .optimizers import OPTIMIZER_NAMES, Optimizer, make_optimizer, newton_schulz_orthogonalize
from .problems import BatchSpec, Problem, build_problem, finite_difference_gradient
from .rng import Rng, stable_hash
from .schedules import (
    EmaScheduleSpec,
    ScheduleSpec,
    ademamix_alpha_at,
    ademamix_beta3_at,
    lr_at,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSpec",
    "CommonHyper",
    "ConfigurationError",
    "ContractViolationError",
    "DegenerateInputError",
    "EmaScheduleSpec",
    "NumericalFailureError",
    "OPTIMIZER_NAMES",
    "Optimizer",
    "ParamBlock",
    "PoisonedStateError",
    "Problem",
    "Rng",
    "RunRecord",
    "RunRow",
    "ScheduleSpec",
    "UnsupportedEstimatorError",
    "ademamix_alpha_at",
    "ademamix_beta3_at",
    "build_problem",
    "clip_gradients",
    "finite_difference_gradient",
    "frobenius_norm",
    "global_norm",
    "lr_at",
    "make_optimizer",
    "matmul",
    "newton_schulz_orthogonalize",
    "qr_orthonormal",
    "run",
    "stable_hash",
    "svd_singular_values",
    "sweep",
    "sym_eigenbasis",
    "time_optimizer",
    "__version__",
]
