"""Desk-scale stochastic objectives with analytic gradients.

Each problem is deterministic given (params, batch_seed) where
batch_seed = (run_seed, step): batches are resampled with replacement from a
per-step stream, and gradient noise uses its own stream, so two evaluations
with the same arguments agree bit for bit. The MLP problem additionally
supports the label-resampling gradient needed by the Gauss-Newton-Bartlett
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import ParamBlock
from .errors import ContractViolationError, UnsupportedEstimatorError
from .linalg import qr_orthonormal
from .rng import Rng, indices_streams, normal_streams

BatchSeed = tuple[int, int]

#: Each ``problem.*`` run key, without the prefix, and its default; ``build_problem`` takes the keys after ``kind``.
DEFAULTS = {
    "kind": "quadratic", "dim": 20, "condition": 10.0, "noise": 0.0, "batch_size": 1,
    "in_dim": 8, "hidden": 16, "classes": 3, "samples": 512,
}

#: Each problem kind and whether it offers the GNB estimator (``Problem.supports_gnb``).
KINDS = {"quadratic": False, "rosenbrock": False, "mlp": True}

#: Most values one prefetched block of per-step draws holds (steps times draws per step).
_PREFETCH_VALUES = 16384


@dataclass(frozen=True)
class BatchSpec:
    """How stochastic evaluations are sampled."""

    batch_size: int = 1
    noise_scale: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractViolationError("batch_size must be >= 1")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ContractViolationError(f"noise_scale must be finite and >= 0, got {self.noise_scale!r}")


class _StepDraws:
    """Row ``step`` of the per-step streams ``f"{purpose}/{step}"``, drawn a block of steps ahead.

    ``draw(run_seed, keys)`` returns one row per key, each what the scalar
    ``Rng(run_seed, key)`` would give, so the block never changes a value; a
    block holds at most ``_PREFETCH_VALUES`` values. After ``plan(run_seed,
    last_step)`` a miss at a step of that run draws every step from it to
    ``last_step`` (up to the cap) and nothing past ``last_step``, so a T-step
    run makes ceil(T / max_block) draws. Without a plan the block doubles (1,
    2, 4, ...) while each call asks for the step after the last call's, and
    any other miss draws a block of one, so out-of-order callers (finite
    differences, checks) draw no more than the scalar stream would.
    """

    def __init__(self, purpose: str, width: int, draw: Callable):
        self.purpose = purpose
        self.draw = draw
        self.max_block = max(1, _PREFETCH_VALUES // max(1, width))
        self.run_seed = self.plan_seed = None
        self.first = self.last = self.block = self.plan_last = 0
        self.rows = np.empty((0, width))

    def plan(self, run_seed: int, last_step: int) -> None:
        """Let later misses of run ``run_seed`` draw ahead up to ``last_step``; draws nothing now."""
        self.plan_seed, self.plan_last = run_seed, last_step

    def __call__(self, run_seed: int, step: int) -> np.ndarray:
        i = step - self.first
        if run_seed != self.run_seed or not 0 <= i < len(self.rows):
            if run_seed == self.plan_seed and step <= self.plan_last:
                self.block = min(self.plan_last - step + 1, self.max_block)
            elif run_seed == self.run_seed and step == self.last + 1:
                self.block = min(2 * self.block, self.max_block)
            else:
                self.block = 1
            self.rows = self.draw(run_seed, [f"{self.purpose}/{s}" for s in range(step, step + self.block)])
            self.run_seed, self.first, i = run_seed, step, 0
        self.last = step
        return self.rows[i].copy()


@dataclass
class Problem:
    """A differentiable stochastic objective over named parameter blocks.

    ``loss_and_grad(params, batch_seed)`` returns the batch loss and one
    gradient array per block; ``full_loss`` is the deterministic objective
    used for summaries and ranking. ``resampled_grad`` (GNB problems only)
    recomputes the gradient with labels drawn from the model's own softmax.
    ``step_draws`` are the problem's per-step streams, which ``draw_ahead``
    sizes to a run.
    """

    name: str
    batch: BatchSpec
    init_blocks: Callable[[int], list[ParamBlock]]
    loss_and_grad: Callable[[dict, BatchSeed], tuple[float, dict]]
    full_loss: Callable[[dict], float]
    resampled_grad: Callable[[dict, BatchSeed], dict] | None = None
    minimizer: dict | None = None
    optimal_value: float | None = None
    step_draws: tuple[_StepDraws, ...] = ()

    @property
    def supports_gnb(self) -> bool:
        return self.resampled_grad is not None

    def draw_ahead(self, run_seed: int, last_step: int) -> None:
        """Tell the per-step streams that run ``run_seed`` will ask for steps up to ``last_step``."""
        for draws in self.step_draws:
            draws.plan(run_seed, last_step)

    def gnb_grad(self, params: dict, batch_seed: BatchSeed) -> dict:
        if not self.supports_gnb:
            raise UnsupportedEstimatorError(
                f"problem {self.name!r} has no categorical output; GNB estimator unsupported"
            )
        return self.resampled_grad(params, batch_seed)


def quadratic_problem(dim: int, condition: float, rng: Rng, batch: BatchSpec = BatchSpec()) -> Problem:
    """Quadratic bowl with eigenvalues log-spaced in [1, condition].

    The gradient is A x - b with b = A x*; the loss is reported relative to
    the optimum (0.5 (x - x*)^T A (x - x*), which differs from
    0.5 x^T A x - b^T x only by a constant), so losses are comparable across
    problem draws and a "loss reduced 1000x" statement needs no reference
    point. The stochastic gradient adds (noise_scale / sqrt(B)) * xi with xi
    standard normal per step; the matching stochastic loss adds the linear
    term (noise * xi) . (x - x*) so finite differences with a shared batch
    seed reproduce the noisy gradient exactly.
    """
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    if not (math.isfinite(condition) and condition >= 1.0):
        raise ContractViolationError(f"condition must be finite and >= 1, got {condition!r}")
    eigvals = np.logspace(0.0, math.log10(condition), dim) if dim > 1 else np.ones(1)
    if dim > 1:
        basis = qr_orthonormal(rng.normal_matrix(dim, dim))
        a = (basis * eigvals) @ basis.T
        a = (a + a.T) / 2.0
    else:
        a = np.array([[eigvals[0]]])
    x_star = rng.normal(dim)
    b = a @ x_star
    x0 = x_star + 2.0 * rng.normal(dim)
    sigma_eff = batch.noise_scale / math.sqrt(batch.batch_size)
    seed = rng.seed
    noise = _StepDraws("noise", dim, lambda run_seed, keys: normal_streams(run_seed, keys, dim))

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        if variant == 0:
            values = x0.copy()
        else:
            values = x_star + 2.0 * Rng(seed, f"quadratic/init/{variant}").normal(dim)
        return [ParamBlock("x", values, role="vector")]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x = params["x"]
        dx = x - x_star
        grad = a @ x - b
        loss = float(0.5 * dx @ a @ dx)
        if sigma_eff > 0.0:
            xi = noise(*batch_seed)
            grad = grad + sigma_eff * xi
            loss += float(sigma_eff * xi @ dx)
        return loss, {"x": grad}

    def full_loss(params: dict) -> float:
        dx = params["x"] - x_star
        return float(0.5 * dx @ a @ dx)

    return Problem(
        name="quadratic",
        batch=batch,
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        minimizer={"x": x_star},
        optimal_value=0.0,
        step_draws=(noise,),
    )


def rosenbrock_problem(dim: int) -> Problem:
    """Chained pairwise Rosenbrock: sum over pairs of 100 (x2 - x1^2)^2 + (1 - x1)^2."""
    if dim < 2 or dim % 2 != 0:
        raise ContractViolationError("dim must be even and >= 2")
    x0 = np.tile([-1.2, 1.0], dim // 2)

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        if variant == 0:
            values = x0.copy()
        else:
            values = x0 + 0.1 * Rng(variant, "rosenbrock/init").normal(dim)
        return [ParamBlock("x", values, role="vector")]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x = params["x"]
        first = x[0::2]
        second = x[1::2]
        resid = second - first**2
        loss = float(np.sum(100.0 * resid**2 + (1.0 - first) ** 2))
        grad = np.empty_like(x)
        grad[0::2] = -400.0 * first * resid - 2.0 * (1.0 - first)
        grad[1::2] = 200.0 * resid
        return loss, {"x": grad}

    def full_loss(params: dict) -> float:
        return loss_and_grad(params, (0, 0))[0]

    return Problem(
        name="rosenbrock",
        batch=BatchSpec(),
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        minimizer={"x": np.ones(dim)},
        optimal_value=0.0,
    )


def mlp_classification_problem(
    in_dim: int,
    hidden: int,
    classes: int,
    n_samples: int,
    rng: Rng,
    batch: BatchSpec = BatchSpec(batch_size=32),
) -> Problem:
    """Two-layer tanh MLP with softmax cross-entropy on Gaussian clusters.

    Blocks: w1 (matrix), b1 (vector), w2 (output_head), b2 (vector). tanh
    keeps the objective smooth so finite-difference checks hold tightly.
    Supports the GNB estimator: labels resampled from the current softmax.
    """
    for name, v in (("in_dim", in_dim), ("hidden", hidden), ("classes", classes), ("n_samples", n_samples)):
        if v < 1:
            raise ContractViolationError(f"{name} must be >= 1")
    seed = rng.seed
    means = 2.0 * rng.normal_matrix(classes, in_dim)
    labels = np.arange(n_samples, dtype=np.int64) % classes
    data = means[labels] + rng.normal_matrix(n_samples, in_dim)

    init_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    batches = _StepDraws(
        "batch", batch.batch_size, lambda run_seed, keys: indices_streams(run_seed, keys, n_samples, batch.batch_size)
    )

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        if variant not in init_cache:
            r = Rng(seed, f"mlp/init/{variant}")
            w1 = r.normal_matrix(in_dim, hidden) / math.sqrt(in_dim)
            w2 = 0.1 * r.normal_matrix(hidden, classes) / math.sqrt(hidden)
            init_cache[variant] = (w1, w2)
        w1, w2 = init_cache[variant]
        return [
            ParamBlock("w1", w1.copy(), role="matrix"),
            ParamBlock("b1", np.zeros(hidden), role="vector"),
            ParamBlock("w2", w2.copy(), role="output_head"),
            ParamBlock("b2", np.zeros(classes), role="vector"),
        ]

    def _forward(params: dict, x: np.ndarray):
        z1 = x @ params["w1"] + params["b1"]
        h = np.tanh(z1)
        logits = h @ params["w2"] + params["b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        probs = expl / expl.sum(axis=1, keepdims=True)
        return h, shifted, probs

    def _loss_grads(params: dict, x: np.ndarray, y: np.ndarray):
        n = x.shape[0]
        h, shifted, probs = _forward(params, x)
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        loss = float(np.mean(logz - shifted[np.arange(n), y]))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        gw2 = h.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dh = dlogits @ params["w2"].T
        dz1 = dh * (1.0 - h * h)
        gw1 = x.T @ dz1
        gb1 = dz1.sum(axis=0)
        return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}

    def _batch(batch_seed: BatchSeed):
        idx = batches(*batch_seed)
        return data[idx], labels[idx]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x, y = _batch(batch_seed)
        return _loss_grads(params, x, y)

    def resampled_grad(params: dict, batch_seed: BatchSeed):
        x, _ = _batch(batch_seed)
        _, _, probs = _forward(params, x)
        run_seed, step = batch_seed
        r = Rng(run_seed, f"gnb/{step}")
        cdf = np.cumsum(probs, axis=1)
        draws = np.array([r.uniform() for _ in range(x.shape[0])])
        sampled = (draws[:, None] > cdf).sum(axis=1)
        sampled = np.minimum(sampled, classes - 1).astype(np.int64)
        return _loss_grads(params, x, sampled)[1]

    def full_loss(params: dict) -> float:
        return _loss_grads(params, data, labels)[0]

    return Problem(
        name="mlp",
        batch=batch,
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        resampled_grad=resampled_grad,
        step_draws=(batches,),
    )


def finite_difference_gradient(problem: Problem, params: dict, batch_seed: BatchSeed, h: float) -> dict:
    """Central differences of the stochastic loss, one coordinate at a time.

    The same batch_seed is passed to both evaluations, so with common random
    numbers the differences converge to the stochastic gradient itself.
    """
    if h <= 0.0:
        raise ContractViolationError("h must be positive")
    grads = {}
    work = {name: np.array(v, dtype=np.float64, copy=True) for name, v in params.items()}
    for name, values in work.items():
        g = np.zeros_like(values)
        flat = values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = problem.loss_and_grad(work, batch_seed)
            flat[i] = orig - h
            down, _ = problem.loss_and_grad(work, batch_seed)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def build_problem(kind: str, seed: int, **params) -> Problem:
    """Build ``kind`` from ``DEFAULTS`` updated by ``params``, checked as a run config's keys are."""
    from .config import validate_keys  # config derives its problem keys from this module

    validate_keys(params, DEFAULTS, DEFAULTS, source="build_problem")
    p = {**DEFAULTS, **params}
    batch = BatchSpec(batch_size=p["batch_size"], noise_scale=p["noise"])
    rng = Rng(seed, "problem")
    if kind == "quadratic":
        return quadratic_problem(p["dim"], p["condition"], rng, batch)
    if kind == "rosenbrock":
        return rosenbrock_problem(p["dim"])
    if kind == "mlp":
        return mlp_classification_problem(p["in_dim"], p["hidden"], p["classes"], p["samples"], rng, batch)
    raise ContractViolationError(f"unknown problem kind {kind!r}")
