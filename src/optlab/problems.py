"""Desk-scale stochastic objectives with analytic gradients.

``build_problem(kind, seed, **params)`` is the one way to make a problem: a
problem is a function of its kind, its run seed and the ``DEFAULTS`` keys
its kind reads (``KINDS``), and every kind that draws its data draws it from
the stream ``Rng(seed, "problem")``. A non-default value of a key the kind
does not read is rejected: it would change a run's name but not the run.

Each problem is deterministic given (params, batch_seed) where
batch_seed = (run_seed, step): batches are resampled with replacement from a
per-step stream, and gradient noise uses its own stream, so two evaluations
with the same arguments agree bit for bit. The MLP problem additionally
supports the label-resampling gradient needed by the Gauss-Newton-Bartlett
estimator.

``build_problem`` reads its seed by ``rng.lane_seeds``, the rule every
stream of the library follows: with a sequence of seeds it builds one
lane-stacked problem for the replicate runs of those seeds
(``Problem.lanes``). One build draws every lane's streams, each step draws
every lane's noise, batch or GNB resample uniforms at once, and one
``loss_and_grad`` call evaluates every lane, giving each lane the bytes of
its own problem. A run and a lane group draw through the same calls: the
seed alone says how many lanes a draw has.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import ParamBlock
from .errors import ContractViolationError, UnsupportedEstimatorError
from .linalg import qr_orthonormal
from .rng import Rng, indices_streams, lane_seeds, normal_streams, uniform_streams

BatchSeed = tuple[int, int]

#: Each ``problem.*`` run key, without the prefix, and its default; ``build_problem`` takes the keys after ``kind``.
DEFAULTS = {
    "kind": "quadratic", "dim": 20, "condition": 10.0, "noise": 0.0, "batch_size": 1,
    "in_dim": 8, "hidden": 16, "classes": 3, "samples": 512,
}

#: The problem kinds ``build_problem`` builds, each with the ``DEFAULTS`` keys it reads.
KINDS = {
    "quadratic": ("dim", "condition", "noise", "batch_size"),
    "rosenbrock": ("dim",),
    "mlp": ("in_dim", "hidden", "classes", "samples", "batch_size"),
}

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

    ``draw(run_seed, keys)`` returns one row per key (per lane and key for a
    tuple of lane seeds), each what the scalar ``Rng(seed, key)`` would give,
    so the block never changes a value; a step gets a read-only view of its
    row, of every lane's row if stacked. A miss has one of two policies.
    After ``plan(run_seed, last_step)`` a miss at a step of that run up to
    ``last_step`` draws every step from it to ``last_step``, at most
    ``_PREFETCH_VALUES`` values per lane and block, so a T-step run makes
    ceil(T / max_block) draws and none past its plan. Any other miss draws
    the asked step alone, so unplanned callers (finite differences, checks)
    draw no more than the scalar stream would. Every miss checks that the run
    seed has ``lanes`` lanes (0: one integer seed), as ``rng.lane_seeds``
    counts them, and raises ``ContractViolationError`` if not.
    """

    def __init__(self, purpose: str, width: int, draw: Callable, lanes: int = 0):
        self.purpose = purpose
        self.draw = draw
        self.lanes = lanes
        self.max_block = max(1, _PREFETCH_VALUES // max(1, width))
        self.run_seed = self.plan_seed = None
        self.first = self.plan_last = self.steps = 0
        self.rows = None

    def plan(self, run_seed, last_step: int) -> None:
        """Let later misses of run ``run_seed`` draw ahead up to ``last_step``; draws nothing now."""
        self.plan_seed, self.plan_last = run_seed, last_step

    def __call__(self, run_seed, step: int) -> np.ndarray:
        i = step - self.first
        if run_seed != self.run_seed or not 0 <= i < self.steps:
            if (lanes := lane_seeds(run_seed)[1]) != self.lanes:
                raise ContractViolationError(f"a problem of {self.lanes} lanes (0: one run) got {lanes}: {run_seed!r}")
            block = 1
            if run_seed == self.plan_seed and step <= self.plan_last:
                block = min(self.plan_last - step + 1, self.max_block)
            keys = [f"{self.purpose}/{s}" for s in range(step, step + block)]
            self.rows = self.draw(run_seed, keys).swapaxes(0, -2)  # step-major: row i is step i of every lane
            self.rows.setflags(write=False)  # callers get views of its rows
            self.run_seed, self.first, self.steps, i = run_seed, step, block, 0
        return self.rows[i]


@dataclass
class Problem:
    """A differentiable stochastic objective over named parameter blocks.

    ``loss_and_grad(params, batch_seed)`` returns the batch loss and one
    gradient array per block; ``full_loss`` is the deterministic objective
    used for summaries and ranking. ``resampled_grad`` (GNB problems only)
    recomputes the gradient with labels drawn from the model's own softmax.
    ``step_draws`` are the problem's per-step streams, which ``draw_ahead``
    sizes to a run.

    ``lanes`` is 0 for one run's problem. A lane-stacked problem
    (``build_problem`` with a sequence of seeds) holds ``lanes`` runs: its
    blocks, points and gradients carry a leading lane axis, a batch seed is
    ``(seeds, step)`` with one run seed per lane, and each loss is one float64
    per lane. Lane ``i``'s values are, bit for bit, those of the problem built
    at seed ``i`` alone.
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
    lanes: int = 0

    @property
    def supports_gnb(self) -> bool:
        return self.resampled_grad is not None

    def draw_ahead(self, run_seed, last_step: int) -> None:
        """Tell the per-step streams that run ``run_seed`` (a tuple of lane seeds if stacked) will ask for steps up to
        ``last_step``."""
        for draws in self.step_draws:
            draws.plan(run_seed, last_step)

    def gnb_grad(self, params: dict, batch_seed: BatchSeed) -> dict:
        if not self.supports_gnb:
            raise UnsupportedEstimatorError(
                f"problem {self.name!r} has no categorical output; GNB estimator unsupported"
            )
        return self.resampled_grad(params, batch_seed)


def _quadratic(dim: int, condition: float, batch: BatchSpec, seed, lanes: int) -> Problem:
    """Quadratic bowl with eigenvalues log-spaced in [1, condition], of ``seed`` (``lanes`` 0) or stacked for a tuple
    of ``lanes`` seeds.

    The gradient is A x - b with b = A x*; the loss is reported relative to
    the optimum (0.5 (x - x*)^T A (x - x*), which differs from
    0.5 x^T A x - b^T x only by a constant), so losses are comparable across
    problem draws and a "loss reduced 1000x" statement needs no reference
    point. The stochastic gradient adds (noise_scale / sqrt(B)) * xi with xi
    standard normal per step; the matching stochastic loss adds the linear
    term (noise * xi) . (x - x*) so finite differences with a shared batch
    seed reproduce the noisy gradient exactly.

    The problem stream's first normals, one row per lane if stacked, are the
    basis matrix, ``x*`` and ``x0``'s offset, in that order, so an odd
    ``dim`` carries the Box-Muller spare across them as the scalar stream
    does. Each lane keeps its own QR. One expression evaluates both layouts
    through numpy's ``np.matvec``, ``np.vecmat`` and ``np.vecdot``, which
    broadcast over the lane axis and call the same gemv and ddot per lane as
    for one run, so each lane gets its own run's bytes.
    """
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    if not (math.isfinite(condition) and condition >= 1.0):
        raise ContractViolationError(f"condition must be finite and >= 1, got {condition!r}")
    eigvals = np.logspace(0.0, math.log10(condition), dim) if dim > 1 else np.ones(1)
    square = dim * dim if dim > 1 else 0

    def bowl(row: np.ndarray):
        if dim > 1:
            basis = qr_orthonormal(row[:square].reshape(dim, dim))
            a = (basis * eigvals) @ basis.T
            a = (a + a.T) / 2.0
        else:
            a = np.array([[eigvals[0]]])
        x_star = row[square : square + dim].copy()  # not a view that keeps the whole stream alive
        return a, a @ x_star, x_star, x_star + 2.0 * row[square + dim :]

    normals = normal_streams(seed, ["problem"], square + 2 * dim)[..., 0, :]
    bowls = [bowl(row) for row in normals.reshape(max(lanes, 1), -1)]
    a, b, x_star, x0 = (np.stack(parts) if lanes else parts[0] for parts in zip(*bowls))
    sigma_eff = batch.noise_scale / math.sqrt(batch.batch_size)
    noise = _StepDraws("noise", dim, lambda run_seed, keys: normal_streams(run_seed, keys, dim), lanes)

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        if variant == 0:
            values = x0.copy()
        else:
            values = x_star + 2.0 * normal_streams(seed, [f"quadratic/init/{variant}"], dim)[..., 0, :]
        return [ParamBlock("x", values, role="vector", lanes=lanes)]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x = params["x"]
        dx = x - x_star
        grad = np.matvec(a, x) - b
        loss = np.vecdot(np.vecmat(0.5 * dx, a), dx)
        if sigma_eff > 0.0:
            scaled = sigma_eff * noise(*batch_seed)
            grad = grad + scaled
            loss += np.vecdot(scaled, dx)
        return loss if lanes else float(loss), {"x": grad}

    def full_loss(params: dict):
        dx = params["x"] - x_star
        loss = np.vecdot(np.vecmat(0.5 * dx, a), dx)
        return loss if lanes else float(loss)

    return Problem(
        name="quadratic",
        batch=batch,
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        minimizer={"x": x_star},
        optimal_value=0.0,
        step_draws=(noise,),
        lanes=lanes,
    )


def _rosenbrock(dim: int, lanes: int) -> Problem:
    """Chained pairwise Rosenbrock: sum over pairs of 100 (x2 - x1^2)^2 + (1 - x1)^2; stacked for ``lanes`` > 0.

    It draws nothing from a run seed, so every lane holds the same problem;
    one expression evaluates both layouts.
    """
    if dim < 2 or dim % 2 != 0:
        raise ContractViolationError("dim must be even and >= 2")
    x0 = np.tile([-1.2, 1.0], dim // 2)

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        if variant == 0:
            values = x0.copy()
        else:
            values = x0 + 0.1 * Rng(variant, "rosenbrock/init").normal(dim)
        return [ParamBlock("x", np.tile(values, (lanes, 1)) if lanes else values, role="vector", lanes=lanes)]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x = params["x"]
        first = x[..., 0::2]
        second = x[..., 1::2]
        resid = second - first**2
        loss = np.sum(100.0 * resid**2 + (1.0 - first) ** 2, axis=-1)
        grad = np.empty_like(x)
        grad[..., 0::2] = -400.0 * first * resid - 2.0 * (1.0 - first)
        grad[..., 1::2] = 200.0 * resid
        return loss if lanes else float(loss), {"x": grad}

    def full_loss(params: dict):
        return loss_and_grad(params, (0, 0))[0]

    return Problem(
        name="rosenbrock",
        batch=BatchSpec(),
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        minimizer={"x": np.ones((lanes, dim) if lanes else dim)},
        optimal_value=0.0,
        lanes=lanes,
    )


def _at(y: np.ndarray) -> tuple:
    """The index of entry ``y[..., j]`` on the last axis of an array shaped ``y.shape + (classes,)``."""
    return (*np.indices(y.shape, sparse=True), y)


def _mlp(in_dim: int, hidden: int, classes: int, n_samples: int, batch: BatchSpec, seed, lanes: int) -> Problem:
    """Two-layer tanh MLP with softmax cross-entropy on Gaussian clusters, of ``seed`` (``lanes`` 0) or stacked for a
    tuple of ``lanes`` seeds.

    Blocks: w1 (matrix), b1 (vector), w2 (output_head), b2 (vector). tanh
    keeps the objective smooth so finite-difference checks hold tightly.
    Supports the GNB estimator: labels resampled from the current softmax.

    The problem stream's first normals (the class means, then the samples'
    offsets) are one row per lane if stacked. Each lane keeps its own data
    and batch indices; the forward and backward pass is one form for both
    layouts (``...`` indexing, ``swapaxes(-1, -2)``, ``b[..., None, :]``),
    whose stacked products call the same gemm per lane.
    """
    for name, v in (("in_dim", in_dim), ("hidden", hidden), ("classes", classes), ("n_samples", n_samples)):
        if v < 1:
            raise ContractViolationError(f"{name} must be >= 1")
    lead = (lanes,) if lanes else ()
    head = classes * in_dim
    normals = normal_streams(seed, ["problem"], head + n_samples * in_dim)[..., 0, :]
    means = 2.0 * normals[..., :head].reshape(*lead, classes, in_dim)
    labels = np.arange(n_samples, dtype=np.int64) % classes
    data = means[..., labels, :] + normals[..., head:].reshape(*lead, n_samples, in_dim)
    all_labels = np.broadcast_to(labels, data.shape[:-1])
    lane_rows = (np.arange(lanes)[:, None],) if lanes else ()  # each lane gathers from its own data

    batches = _StepDraws(
        "batch", batch.batch_size,
        lambda run_seed, keys: indices_streams(run_seed, keys, n_samples, batch.batch_size), lanes,
    )
    resamples = _StepDraws(
        "gnb", batch.batch_size, lambda run_seed, keys: uniform_streams(run_seed, keys, batch.batch_size), lanes
    )

    def init_blocks(variant: int = 0) -> list[ParamBlock]:
        first = in_dim * hidden
        normals = normal_streams(seed, [f"mlp/init/{variant}"], first + hidden * classes)[..., 0, :]
        w1 = normals[..., :first].reshape(*lead, in_dim, hidden) / math.sqrt(in_dim)
        w2 = 0.1 * normals[..., first:].reshape(*lead, hidden, classes) / math.sqrt(hidden)
        return [
            ParamBlock("w1", w1, role="matrix", lanes=lanes),
            ParamBlock("b1", np.zeros((*lead, hidden)), role="vector", lanes=lanes),
            ParamBlock("w2", w2, role="output_head", lanes=lanes),
            ParamBlock("b2", np.zeros((*lead, classes)), role="vector", lanes=lanes),
        ]

    def _forward(params: dict, x: np.ndarray):
        """The hidden activations and the logits shifted by their row maximum.

        Each step after a product works in place on the array that product made.
        """
        h = x @ params["w1"]
        h += params["b1"][..., None, :]
        np.tanh(h, out=h)
        logits = h @ params["w2"]
        logits += params["b2"][..., None, :]
        logits -= logits.max(axis=-1, keepdims=True)
        return h, logits

    def _softmax(shifted: np.ndarray) -> np.ndarray:
        expl = np.exp(shifted)
        expl /= expl.sum(axis=-1, keepdims=True)
        return expl

    def _loss(shifted: np.ndarray, y: np.ndarray):
        logz = np.log(np.sum(np.exp(shifted), axis=-1))
        loss = np.mean(logz - shifted[_at(y)], axis=-1)
        return loss if lanes else float(loss)

    def _grads(params: dict, x: np.ndarray, y: np.ndarray, h: np.ndarray, probs: np.ndarray) -> dict:
        """The batch gradient; ``probs`` becomes the logits' gradient in place, ``h`` is only read."""
        n = x.shape[-2]
        dlogits = probs
        dlogits[_at(y)] -= 1.0
        dlogits /= n
        gw2 = h.swapaxes(-1, -2) @ dlogits
        gb2 = dlogits.sum(axis=-2)
        dz1 = dlogits @ params["w2"].swapaxes(-1, -2)
        dtanh = h * h
        np.subtract(1.0, dtanh, out=dtanh)
        dz1 *= dtanh
        gw1 = x.swapaxes(-1, -2) @ dz1
        gb1 = dz1.sum(axis=-2)
        return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}

    def _batch(batch_seed: BatchSeed):
        idx = batches(*batch_seed)
        return data[(*lane_rows, idx)], labels[idx]

    def loss_and_grad(params: dict, batch_seed: BatchSeed):
        x, y = _batch(batch_seed)
        h, shifted = _forward(params, x)
        return _loss(shifted, y), _grads(params, x, y, h, _softmax(shifted))

    def resampled_grad(params: dict, batch_seed: BatchSeed):
        x, _ = _batch(batch_seed)
        h, shifted = _forward(params, x)
        probs = _softmax(shifted)
        cdf = np.cumsum(probs, axis=-1)
        sampled = (resamples(*batch_seed)[..., None] > cdf).sum(axis=-1)
        sampled = np.minimum(sampled, classes - 1).astype(np.int64)
        return _grads(params, x, sampled, h, probs)

    def full_loss(params: dict):
        return _loss(_forward(params, data)[1], all_labels)  # no softmax, no backward

    return Problem(
        name="mlp",
        batch=batch,
        init_blocks=init_blocks,
        loss_and_grad=loss_and_grad,
        full_loss=full_loss,
        resampled_grad=resampled_grad,
        step_draws=(batches, resamples),
        lanes=lanes,
    )


def finite_difference_gradient(problem: Problem, params: dict, batch_seed: BatchSeed, h: float) -> dict:
    """Central differences of the stochastic loss, one coordinate at a time.

    The same batch_seed is passed to both evaluations, so with common random
    numbers the differences converge to the stochastic gradient itself. It
    differentiates one run's problem: a lane-stacked one raises
    ``ContractViolationError`` naming its lane count.
    """
    if not h > 0.0:  # a NaN step fails this too
        raise ContractViolationError("h must be positive")
    if problem.lanes:
        raise ContractViolationError(
            f"finite_difference_gradient differentiates one run's problem, got one of {problem.lanes} lanes"
        )
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


def build_problem(kind: str, seed: int | Sequence[int], **params) -> Problem:
    """Build ``kind`` from ``DEFAULTS`` updated by ``params``, checked as a run config's keys are.

    A non-default value of a key that ``kind`` does not read (``KINDS``)
    raises ``ContractViolationError`` naming the kind and the key; a default
    one is accepted, so every resolved run config builds.

    ``seed`` is one run's seed, or a non-empty sequence of run seeds for the
    lane-stacked problem of those runs (``Problem.lanes``): its build draws
    every lane's ``Rng(seed, "problem")`` stream in one call, and lane ``i``
    holds the arrays of ``build_problem(kind, seed[i], **params)``. Any other
    seed raises ``ContractViolationError``: ``rng.lane_seeds`` is the rule.
    """
    from .config import validate_keys  # config derives its problem keys from this module

    if kind not in KINDS:
        raise ContractViolationError(f"unknown problem.kind {kind!r}; valid kinds: {', '.join(KINDS)}")
    validate_keys(params, DEFAULTS, DEFAULTS, source="build_problem")
    for key, value in params.items():
        if key not in KINDS[kind] and value != DEFAULTS[key]:
            raise ContractViolationError(
                f"problem.kind {kind!r} does not read problem.{key} (got {value!r}); it reads {', '.join(KINDS[kind])}"
            )
    p = {**DEFAULTS, **params}
    batch = BatchSpec(batch_size=p["batch_size"], noise_scale=p["noise"])
    seeds, lanes = lane_seeds(seed)
    seed = seeds if lanes else seeds[0]
    if kind == "quadratic":
        return _quadratic(p["dim"], p["condition"], batch, seed, lanes)
    if kind == "rosenbrock":
        return _rosenbrock(p["dim"], lanes)
    return _mlp(p["in_dim"], p["hidden"], p["classes"], p["samples"], batch, seed, lanes)
