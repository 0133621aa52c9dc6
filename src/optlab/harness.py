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
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .blocks import global_norm
from .config import resolve, value_to_str
from .errors import ConfigurationError, PoisonedStateError
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

    def csv(self) -> str:
        d_t = "" if self.d is None else value_to_str(self.d)
        return (
            f"{self.step},{value_to_str(self.loss)},{value_to_str(self.grad_norm)},"
            f"{value_to_str(self.update_norm)},{value_to_str(self.param_norm)},"
            f"{value_to_str(self.lr)},{value_to_str(self.effective_lr)},{d_t},{self.step_time_ns}"
        )


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
        lines = [CSV_HEADER]
        lines.extend(row.csv() for row in self.rows)
        return "\n".join(lines) + "\n"

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


def clip_gradients(grads: dict, threshold: float) -> tuple[dict, float]:
    """Global-norm clipping across all blocks; returns the pre-clip norm."""
    if not threshold > 0.0:  # a NaN threshold fails this too
        raise ConfigurationError(f"clip threshold must be positive, got {threshold!r}")
    norm = global_norm(grads.values())
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


def setup_run(cfg: dict):
    """Resolve ``cfg``, then build (cfg, problem, blocks, engine, schedule) from its sections."""
    cfg = resolve(cfg)
    problem_cfg = _section(cfg, "problem")
    problem = build_problem(problem_cfg.pop("kind"), cfg["run.seed"], **problem_cfg)
    blocks = problem.init_blocks(0)
    return cfg, problem, blocks, *build_engine(cfg, problem, blocks)


def _train(record: RunRecord, problem: Problem, blocks, engine, schedule: ScheduleSpec, seed: int,
           clip: float | None, log_every: int) -> RunRecord:
    """Step ``engine`` for ``schedule.total_steps`` steps, filling ``record``; see the module docstring.

    The problem is told the run's seed and length first, so its per-step
    streams are drawn in blocks sized to the run (``Problem.draw_ahead``).
    """
    total = schedule.total_steps
    problem.draw_ahead(seed, total)
    # bound once per run; clip_gradients, lr_at and global_norm stay module lookups, which profilers patch
    eval_point, loss_and_grad, step, clock = engine.eval_point, problem.loss_and_grad, engine.step, time.perf_counter_ns
    threshold, batch_size = math.inf if clip is None else float(clip), problem.batch.batch_size
    times: list[int] = []
    for t in range(1, total + 1):
        point = eval_point()
        loss, grads = loss_and_grad(point, (seed, t))
        try:
            if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
                raise PoisonedStateError("loss diverged")
            grads, pre_norm = clip_gradients(grads, threshold)
            lr_t = lr_at(schedule, t)
            resampled = problem.gnb_grad(point, (seed, t)) if engine.wants_estimate() else None
            start = clock()
            info = step(grads, lr_t / schedule.gamma_max, resampled, batch_size)
            elapsed = clock() - start
        except PoisonedStateError as exc:
            record.failure = {"kind": type(exc).__name__, "step": t, "message": str(exc)}
            break
        times.append(elapsed)
        if t % log_every == 0 or t == total:
            param_norm = global_norm(b.values for b in blocks)
            record.rows.append(
                RunRow(t, loss, pre_norm, info.update_norm, param_norm, lr_t, info.effective_lr, info.d, elapsed)
            )
    if times:
        record.mean_step_time_ns = float(statistics.fmean(times))
    return record


def run(config: dict) -> RunRecord:
    """Execute one deterministic run; see the module docstring for the loop."""
    cfg, problem, blocks, engine, schedule = setup_run(config)
    record = _train(RunRecord(config=cfg), problem, blocks, engine, schedule,
                    cfg["run.seed"], cfg["run.clip"], cfg["run.log_every"])
    if not record.diverged:
        record.final_loss = problem.full_loss({b.name: b.values for b in blocks})
    return record


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
    """
    if steps < 1 or repeats < 1:
        raise ConfigurationError("steps and repeats must be >= 1")
    repeat_means = []
    for rep in range(repeats):
        blocks = problem.init_blocks(rep)
        engine = make_optimizer(optimizer_name, blocks, steps, opt_params)
        check_estimator(engine, problem)
        schedule = ScheduleSpec("constant", engine.lr, steps)
        record = _train(RunRecord(config={}), problem, blocks, engine, schedule,
                        stable_hash(seed, optimizer_name, rep), None, steps)
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

    Each grid cell runs with an independent seed derived from the base seed
    and the cell index, so cells are comparable but not correlated; a grid
    over ``run.seed`` runs the seeds it names instead. ``bench.plan_cells``
    resolves every cell's config and builds its problem, engine and schedule
    before any cell runs, as it does for a suite, so a misspelt grid key or a
    value the run would reject when it starts raises before the first run.
    """
    if not grid:
        return [({}, run(base_config))]
    from .bench import plan_cells  # bench imports this module

    points = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    configs = plan_cells(base_config, resolve(base_config)["run.seed"], [((i,), None, p) for i, p in enumerate(points)])
    return [(point, run(cfg)) for point, cfg in zip(points, configs)]
