"""The training loop: clipping, scheduling, stepping, logging, timing.

``run(config)`` executes one fully deterministic training run from a flat
config and returns a :class:`RunRecord`. The config goes through
:func:`optlab.config.resolve` first, as it does from the CLI and ``bench``:
defaults and the named preset fill it in, and unknown keys or values of the
wrong kind are rejected before anything runs. Per step it: evaluates the loss
and gradient at the point the optimizer asks for, checks for divergence,
clips by global norm, applies the scheduled learning rate, steps the
optimizer (timed in isolation from gradient work), and logs. Divergence is
permanent: nothing moves after the flagged step, and the record keeps why
(``RunRecord.failure``). ``time_optimizer`` times this same loop.

The loop, ``_train``, steps one problem and one engine, and calls
``problem.loss_and_grad`` once per step. A run (``run``, ``time_optimizer``,
each ``sweep`` cell, the planner's first steps) has no lane axis.
``run_lanes`` steps the replicates of one cell, which differ only in
``run.seed``, as one lane group, for every rule: ``setup_run`` at the tuple of
the lanes' seeds builds one lane-stacked problem, whose ``init_blocks(0)``
stack every lane's initial blocks on a leading axis, and one engine over them.
Each lane keeps its own seed and record. A step evaluates every lane in one
call, which returns a loss per lane, one list that the loss check and the rows
read, and the stacked gradients; the clip scale and the norms are each lane's
own, and one ``engine.step`` moves every lane, so each lane's rows and final
loss are those of its own run, bit for bit. A lane's ``step_time_ns`` is the
group's step time divided by the lane count, rounded down. A group in which
any lane diverges is discarded, and each of its lanes runs alone.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import global_norm
from .config import resolve
from .errors import ConfigurationError, ContractViolationError, PoisonedStateError
from .optimizers import make_optimizer
from .problems import Problem, build_problem
from .rng import stable_hash
from .schedules import ScheduleSpec, lr_at

CSV_HEADER = "step,loss,grad_norm,update_norm,param_norm,lr,effective_lr,d_t,step_time_ns"

#: A loss above this (or any non-finite number) flags the run as diverged.
DIVERGENCE_LOSS = 1e6


class RunRow(NamedTuple):
    """One logged step: the ``record.csv`` columns, in order."""

    step: int
    loss: float
    grad_norm: float
    update_norm: float
    param_norm: float
    lr: float
    effective_lr: float
    d: float | None
    step_time_ns: int

    def shared_text(self) -> tuple[str, str]:
        """The text of the ``step`` column and of the ``lr`` to ``step_time_ns`` columns, which every lane of a lane
        group logs alike."""
        d_t = "" if self.d is None else repr(self.d)
        return f"{self.step},", f",{self.lr!r},{self.effective_lr!r},{d_t},{self.step_time_ns}"

    def csv(self, shared: tuple[str, str] | None = None) -> str:
        """The row's ``record.csv`` line: each value as ``config.value_to_str`` writes it, a ``None`` ``d`` empty.

        ``shared`` is the row's ``shared_text()``, if the caller formatted it already for a whole lane group.
        """
        head, tail = self.shared_text() if shared is None else shared
        return f"{head}{self.loss!r},{self.grad_norm!r},{self.update_norm!r},{self.param_norm!r}{tail}"


def csv_texts(records: list[RunRecord]) -> list[str]:
    """Each record's ``record.csv`` text, formatted one logged step at a time across the records (a run: a group of one).

    The lanes of a lane group log the same ``step``, ``lr``,
    ``effective_lr``, ``d`` and ``step_time_ns`` objects at each step, so
    their text is formatted once, from the first lane, and used by each lane
    whose five values are those same objects; any other lane formats its own,
    so each text is its own record's. Records that log different numbers of
    rows are formatted one by one.
    """
    if len({len(record.rows) for record in records}) > 1:
        return [text for record in records for text in csv_texts([record])]
    texts = [[CSV_HEADER] for _ in records]
    for rows in zip(*(record.rows for record in records)):
        first = rows[0]
        shared = first.shared_text()
        for lines, row in zip(texts, rows):
            same = (row.step is first.step and row.lr is first.lr and row.effective_lr is first.effective_lr
                    and row.d is first.d and row.step_time_ns is first.step_time_ns)
            lines.append(row.csv(shared if same else None))
    return ["\n".join(lines) + "\n" for lines in texts]


@dataclass
class RunRecord:
    """Per-step metric rows plus the final summary of one run."""

    config: dict
    rows: list[RunRow] = field(default_factory=list)
    final_loss: float | None = None
    mean_step_time_ns: float = 0.0
    #: Why the run stopped early: ``{"kind", "step", "message"}`` of the error, or None for a clean run.
    failure: dict | None = None

    @property
    def diverged(self) -> bool:
        return self.failure is not None

    @property
    def divergence_step(self) -> int | None:
        return None if self.failure is None else self.failure["step"]

    def csv_text(self) -> str:
        return csv_texts([self])[0]

    def summary(self) -> dict:
        return {
            "final_loss": self.final_loss,
            "mean_step_time_ns": self.mean_step_time_ns,
            "diverged": self.diverged,
            "divergence_step": self.divergence_step,
            "failure": self.failure,
            "steps_logged": len(self.rows),
            "config": dict(self.config),
        }


def clip_gradients(grads: dict, threshold: float, lanes: int = 0) -> tuple[dict, float]:
    """Global-norm clipping across all blocks; returns the pre-clip norm.

    For gradients that stack ``lanes`` lanes (``global_norm``'s lane form) the
    norm and the clipping are each lane's own: a lane's scale is
    ``threshold / max(norm, threshold)``, which is exactly 1.0 for a lane at or
    under the threshold and so leaves its bytes as they are.
    """
    if not threshold > 0.0:  # a NaN threshold fails this too
        raise ConfigurationError(f"clip threshold must be positive, got {threshold!r}")
    norm = global_norm(grads.values(), lanes)
    if lanes:
        largest = float(norm.max())  # NaN if any lane's norm is NaN
        if not math.isfinite(largest):
            raise PoisonedStateError("non-finite gradient norm")
        if largest > threshold:
            scale = threshold / np.maximum(norm, threshold)
            grads = {name: g * scale.reshape((lanes,) + (1,) * (g.ndim - 1)) for name, g in grads.items()}
        return grads, norm
    if not math.isfinite(norm):
        raise PoisonedStateError("non-finite gradient norm")
    if norm > threshold:
        scale = threshold / norm
        grads = {name: g * scale for name, g in grads.items()}
    return grads, norm


def _section(cfg: dict, prefix: str) -> dict:
    """The ``prefix.*`` entries of a flat config, without the prefix."""
    return {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def optimizer_params(cfg: dict) -> dict:
    """The ``optimizer.*`` hyperparameters of a flat config, without the prefix."""
    return {k: v for k, v in _section(cfg, "optimizer").items() if k not in ("name", "preset")}


def check_estimator(engine, problem: Problem) -> None:
    """Reject an engine that needs the GNB estimator on a problem without one."""
    if engine.needs_gnb and not problem.supports_gnb:
        raise ConfigurationError(
            f"optimizer {engine.name!r} needs the GNB estimator but problem {problem.name!r} has no categorical output"
        )


def build_engine(cfg: dict, problem: Problem, blocks):
    """The (engine, schedule) of resolved ``cfg`` on ``problem``'s ``blocks``; the schedule peaks at the engine's lr."""
    opt_params = optimizer_params(cfg)
    if cfg["run.coupled_wd_demo"]:
        if cfg["optimizer.name"] != "signum":
            raise ConfigurationError("run.coupled_wd_demo is only defined for the signum optimizer")
        opt_params["coupled_wd"] = True
    engine = make_optimizer(cfg["optimizer.name"], blocks, cfg["run.steps"], opt_params)
    check_estimator(engine, problem)
    return engine, ScheduleSpec(gamma_max=engine.lr, total_steps=cfg["run.steps"], **_section(cfg, "schedule"))


def _build_problem(cfg: dict, seed):
    """The problem of resolved ``cfg``'s ``problem.*`` section at run seed ``seed`` (a tuple of seeds: lane-stacked)."""
    problem_cfg = _section(cfg, "problem")
    return build_problem(problem_cfg.pop("kind"), seed, **problem_cfg)


def setup_run(cfg: dict, seed=None):
    """Resolve ``cfg``, then build (cfg, problem, blocks, engine, schedule) from its sections.

    The problem's seed is ``seed``, else ``run.seed``; a tuple of seeds stacks its lanes (``rng.lane_seeds``).
    """
    cfg = resolve(cfg)
    problem = _build_problem(cfg, cfg["run.seed"] if seed is None else seed)
    blocks = problem.init_blocks(0)
    return cfg, problem, blocks, *build_engine(cfg, problem, blocks)


def _train(problem: Problem, seed, records: list[RunRecord], engine, schedule: ScheduleSpec, clip: float | None,
           log_every: int) -> None:
    """Step ``engine`` for ``schedule.total_steps`` steps, filling ``records``; see the module docstring.

    ``engine.lanes`` is 0 for one run: ``seed`` is then its run seed,
    ``records`` holds its record alone and no array has a lane axis. For a
    lane group ``problem`` is lane-stacked, ``seed`` holds one run seed per
    lane and ``records`` one record per lane; a ``PoisonedStateError`` in any
    lane propagates, for the caller to discard the group. Either way each step
    calls ``problem.loss_and_grad`` once. The problem is told the run's seed
    and length first, so its per-step streams are drawn in blocks sized to the
    run (``Problem.draw_ahead``).
    """
    total, stacked = schedule.total_steps, engine.lanes
    problem.draw_ahead(seed, total)
    # bound once per run; clip_gradients, lr_at and global_norm stay module lookups, which profilers patch
    evaluate, estimate, record = problem.loss_and_grad, problem.gnb_grad, records[0]
    eval_point, step, clock = engine.eval_point, engine.step, time.perf_counter_ns
    threshold, batch_size, count = math.inf if clip is None else float(clip), problem.batch.batch_size, len(records)
    times: list[int] = []
    for t in range(1, total + 1):
        point = eval_point()
        loss, grads = evaluate(point, (seed, t))
        try:
            if stacked:  # one list per step, which the loss check and the rows read
                loss = loss.tolist()
                worst = max(loss) if all(map(math.isfinite, loss)) else math.nan
            else:
                worst = loss
            if not math.isfinite(worst) or worst > DIVERGENCE_LOSS:
                raise PoisonedStateError("loss diverged")
            grads, pre_norm = clip_gradients(grads, threshold, stacked)
            lr_t = lr_at(schedule, t)
            resampled = estimate(point, (seed, t)) if engine.wants_estimate() else None
            start = clock()
            info = step(grads, lr_t / schedule.gamma_max, resampled, batch_size)
            elapsed = (clock() - start) // count
        except PoisonedStateError as exc:
            if stacked:
                raise
            record.failure = {"kind": type(exc).__name__, "step": t, "message": str(exc)}
            break
        times.append(elapsed)
        if t % log_every == 0 or t == total:
            param_norm = global_norm((b.values for b in engine.blocks), stacked)
            if stacked:
                # prodigy's effective_lr and d are lists, one per lane; any other engine's are one value for all
                per_lane = [x if isinstance(x, list) else itertools.repeat(x) for x in (info.effective_lr, info.d)]
                for lane, lane_loss, grad_norm, update_norm, norm, eff_lr, d in zip(
                    records, loss, pre_norm.tolist(), info.update_norm.tolist(), param_norm.tolist(), *per_lane
                ):
                    lane.rows.append(RunRow(t, lane_loss, grad_norm, update_norm, norm, lr_t, eff_lr, d, elapsed))
            else:
                record.rows.append(
                    RunRow(t, loss, pre_norm, info.update_norm, param_norm, lr_t, info.effective_lr, info.d, elapsed)
                )
    if times:
        mean = math.fsum(times) / len(times)  # statistics.fmean's value
        for lane in records:
            lane.mean_step_time_ns = mean


def run(config: dict) -> RunRecord:
    """Execute one deterministic run; see the module docstring for the loop."""
    cfg, problem, blocks, engine, schedule = setup_run(config)
    record = RunRecord(config=cfg)
    _train(problem, cfg["run.seed"], [record], engine, schedule, cfg["run.clip"], cfg["run.log_every"])
    if not record.diverged:
        record.final_loss = problem.full_loss({b.name: b.values for b in blocks})
    return record


def run_lanes(configs: list[dict]) -> list[RunRecord]:
    """The records of ``configs``, replicates of one cell, stepped as one lane group; see the module docstring.

    The configs may differ only in ``run.seed`` and there must be at least
    one; ``ContractViolationError`` otherwise. If any lane diverges
    (``PoisonedStateError``, a diverged loss included), the group is discarded
    and each config runs alone through ``run``, so every record equals its
    run's, ``failure`` included.
    """
    if not configs:
        raise ContractViolationError("a lane group needs at least one config")
    cfgs = [resolve(cfg) for cfg in configs]
    cfg = cfgs[0]
    if any({**other, "run.seed": None} != {**cfg, "run.seed": None} for other in cfgs):
        raise ContractViolationError("the configs of a lane group may differ only in run.seed")
    seeds = tuple(lane_cfg["run.seed"] for lane_cfg in cfgs)
    cfg, problem, blocks, engine, schedule = setup_run(cfg, seeds)
    records = [RunRecord(lane_cfg) for lane_cfg in cfgs]
    try:
        _train(problem, seeds, records, engine, schedule, cfg["run.clip"], cfg["run.log_every"])
    except PoisonedStateError:
        return [run(config) for config in configs]
    final = problem.full_loss({b.name: b.values for b in blocks}).tolist()
    for record, loss in zip(records, final):
        record.final_loss = loss
    return records


@dataclass(frozen=True)
class TimingResult:
    """Optimizer-step wall time, isolated from gradient evaluation."""

    optimizer: str
    mean_ns: float
    std_ns: float
    repeat_means_ns: tuple[float, ...]


def time_optimizer(
    optimizer_name: str,
    opt_params: dict,
    problem: Problem,
    steps: int = 20,
    repeats: int = 5,
    seed: int = 0,
) -> TimingResult:
    """Mean and stddev of the optimizer-step time over ``repeats`` reseeded runs.

    Each repeat is ``run``'s loop from ``problem.init_blocks(repeat)`` at a
    constant lr, unclipped; its mean is the loop's ``mean_step_time_ns`` (only
    ``engine.step`` is timed). A diverging repeat raises ``PoisonedStateError``.
    It times one run's step, so a lane-stacked problem raises
    ``ContractViolationError``.
    """
    if problem.lanes:
        raise ContractViolationError(f"time_optimizer times one run's problem, got one of {problem.lanes} lanes")
    if steps < 1 or repeats < 1:
        raise ConfigurationError("steps and repeats must be >= 1")
    import statistics  # loaded on first use: only timing reads it

    repeat_means = []
    for rep in range(repeats):
        blocks = problem.init_blocks(rep)
        engine = make_optimizer(optimizer_name, blocks, steps, opt_params)
        check_estimator(engine, problem)
        schedule = ScheduleSpec("constant", engine.lr, steps)
        record = RunRecord(config={})
        _train(problem, stable_hash(seed, optimizer_name, rep), [record], engine, schedule, None, steps)
        if record.diverged:
            raise PoisonedStateError(
                f"optimizer {optimizer_name!r} diverged in repeat {rep} at step {record.divergence_step}"
            )
        repeat_means.append(record.mean_step_time_ns)
    mean = statistics.fmean(repeat_means)
    std = statistics.stdev(repeat_means) if repeats > 1 else 0.0
    return TimingResult(optimizer_name, mean, std, tuple(repeat_means))


def sweep(base_config: dict, grid: dict[str, list]) -> list[tuple[dict, RunRecord]]:
    """Cartesian-product runs over config fields; empty grid = one base run.

    An axis that is text or lists no values raises, naming its key. Each grid
    point is the assignment of ``bench.plan_cells`` cell ``((index,), point)``,
    seeded from the base seed and the index, so cells are comparable but not
    correlated; a grid over ``run.seed`` runs the seeds it names instead. The
    planner builds each distinct cell's problem, engine and schedule and runs
    its first step before any cell runs, as for a suite, so a misspelt key or
    a value the run would reject (a ``problem.dim`` of 0, a lion ``beta1`` of
    1.5) raises before the first run. Each cell then runs its planned config.
    """
    if not grid:
        return [({}, run(base_config))]
    if bad := next((key for key, values in grid.items() if isinstance(values, str) or len(values) == 0), None):
        raise ConfigurationError(f"sweep axis {bad!r} must list at least one value, got {grid[bad]!r}")
    from .bench import plan_cells  # bench imports this module

    points = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    planned = plan_cells(base_config, resolve(base_config)["run.seed"], [((i,), p) for i, p in enumerate(points)])
    return [(point, run(cfg)) for point, cfg in zip(points, planned)]
