"""The training loop: clipping, scheduling, stepping, logging, timing.

``run(config)`` executes one fully deterministic training run from a resolved
flat config and returns a :class:`RunRecord`. Per step it: evaluates the loss
and gradient at the point the optimizer asks for, checks for divergence,
clips by global norm, applies the scheduled learning rate, steps the
optimizer (timed in isolation from gradient work), and logs. Divergence is
permanent: nothing moves after the flagged step.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass, field

from .blocks import global_norm
from .config import DEFAULTS, KNOWN_KEYS, value_to_str
from .errors import ConfigurationError, PoisonedStateError
from .optimizers import make_optimizer
from .problems import Problem, build_problem
from .rng import stable_hash
from .schedules import ScheduleSpec, lr_at

CSV_HEADER = "step,loss,grad_norm,update_norm,param_norm,lr,effective_lr,d_t,step_time_ns"

#: A loss above this (or any non-finite number) flags the run as diverged.
DIVERGENCE_LOSS = 1e6


@dataclass(frozen=True)
class RunRow:
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
    diverged: bool = False
    divergence_step: int | None = None

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
            "steps_logged": len(self.rows),
            "config": dict(self.config),
        }


def clip_gradients(grads: dict, threshold: float) -> tuple[dict, float]:
    """Global-norm clipping across all blocks; returns the pre-clip norm."""
    if threshold <= 0.0:
        raise ConfigurationError("clip threshold must be positive")
    norm = global_norm(grads.values())
    if not math.isfinite(norm):
        raise PoisonedStateError("non-finite gradient norm")
    if norm > threshold:
        scale = threshold / norm
        grads = {name: g * scale for name, g in grads.items()}
    return grads, norm


def optimizer_params(cfg: dict) -> dict:
    """The ``optimizer.*`` hyperparameters of a flat config, without the prefix."""
    skip = ("optimizer.name", "optimizer.preset")
    return {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("optimizer.") and k not in skip}


def _build_schedule(cfg: dict, gamma_max: float) -> ScheduleSpec:
    return ScheduleSpec(
        family=cfg["schedule.family"],
        gamma_max=gamma_max,
        total_steps=cfg["run.steps"],
        warmup_steps=cfg["schedule.warmup_steps"],
        final_lr_factor=cfg["schedule.final_lr_factor"],
        wsd_cooldown_fraction=cfg["schedule.wsd_cooldown_fraction"],
    )


def _build_engine(name: str, params: dict, problem: Problem, blocks, total_steps: int):
    """``make_optimizer`` plus the check that a GNB rule gets a categorical problem."""
    engine = make_optimizer(name, blocks, total_steps, params)
    if engine.gnb_freq is not None and not problem.supports_gnb:
        raise ConfigurationError(
            f"optimizer {name!r} needs the GNB estimator but problem {problem.name!r} has no categorical output"
        )
    return engine


def setup_run(cfg: dict):
    """Build (problem, blocks, engine, schedule) from a resolved config."""
    cfg = {**DEFAULTS, **cfg}
    seed = cfg["run.seed"]
    problem_keys = {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("problem.")}
    kind = problem_keys.pop("kind")
    problem = build_problem(kind, seed, **problem_keys)
    opt_name = cfg["optimizer.name"]
    opt_params = optimizer_params(cfg)
    if cfg["run.coupled_wd_demo"]:
        if opt_name != "signum":
            raise ConfigurationError("run.coupled_wd_demo is only defined for the signum optimizer")
        opt_params["coupled_wd"] = True
    blocks = problem.init_blocks(0)
    engine = _build_engine(opt_name, opt_params, problem, blocks, cfg["run.steps"])
    schedule = _build_schedule(cfg, engine.lr)
    return cfg, problem, blocks, engine, schedule


def run(config: dict) -> RunRecord:
    """Execute one deterministic run; see the module docstring for the loop."""
    cfg, problem, blocks, engine, schedule = setup_run(config)
    seed = cfg["run.seed"]
    total = cfg["run.steps"]
    clip = cfg["run.clip"]
    log_every = max(1, int(cfg["run.log_every"]))
    record = RunRecord(config=cfg)
    times: list[int] = []
    for t in range(1, total + 1):
        point = engine.eval_point()
        loss, grads = problem.loss_and_grad(point, (seed, t))
        if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
            record.diverged = True
            record.divergence_step = t
            break
        try:
            if clip is not None:
                grads, pre_norm = clip_gradients(grads, float(clip))
            else:
                pre_norm = global_norm(grads.values())
                if not math.isfinite(pre_norm):
                    raise PoisonedStateError("non-finite gradient norm")
            lr_t = lr_at(schedule, t)
            resampled = problem.gnb_grad(point, (seed, t)) if engine.wants_estimate() else None
            start = time.perf_counter_ns()
            info = engine.step(grads, lr_t / schedule.gamma_max, resampled, problem.batch.batch_size)
            elapsed = time.perf_counter_ns() - start
        except PoisonedStateError:
            record.diverged = True
            record.divergence_step = t
            break
        times.append(elapsed)
        if t % log_every == 0 or t == total:
            record.rows.append(
                RunRow(
                    step=t,
                    loss=loss,
                    grad_norm=pre_norm,
                    update_norm=info.update_norm,
                    param_norm=global_norm(b.values for b in blocks),
                    lr=lr_t,
                    effective_lr=info.effective_lr,
                    d=info.d,
                    step_time_ns=elapsed,
                )
            )
    if times:
        record.mean_step_time_ns = float(statistics.fmean(times))
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

    Only ``engine.step`` is inside the timed section; batch sampling, loss,
    gradients, and the label-resampled gradient are not.
    """
    if steps < 1 or repeats < 1:
        raise ConfigurationError("steps and repeats must be >= 1")
    repeat_means = []
    for rep in range(repeats):
        engine = _build_engine(optimizer_name, opt_params, problem, problem.init_blocks(rep), steps)
        rep_seed = stable_hash(seed, optimizer_name, rep)
        times = []
        for t in range(1, steps + 1):
            point = engine.eval_point()
            _, grads = problem.loss_and_grad(point, (rep_seed, t))
            resampled = problem.gnb_grad(point, (rep_seed, t)) if engine.wants_estimate() else None
            start = time.perf_counter_ns()
            engine.step(grads, 1.0, resampled, problem.batch.batch_size)
            times.append(time.perf_counter_ns() - start)
        repeat_means.append(statistics.fmean(times))
    mean = statistics.fmean(repeat_means)
    std = statistics.stdev(repeat_means) if repeats > 1 else 0.0
    return TimingResult(optimizer_name, mean, std, tuple(repeat_means))


def sweep(base_config: dict, grid: dict[str, list]) -> list[tuple[dict, RunRecord]]:
    """Cartesian-product runs over config fields; empty grid = one base run.

    Each grid cell runs with an independent seed derived from the base seed
    and the cell index, so cells are comparable but not correlated.
    """
    base = {**DEFAULTS, **base_config}
    for key in grid:
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"sweep key {key!r} is not a known config field")
    if not grid:
        return [({}, run(base))]
    results = []
    for index, values in enumerate(itertools.product(*grid.values())):
        assignment = dict(zip(grid, values))
        cfg = {**base, **assignment, "run.seed": stable_hash(base["run.seed"], index)}
        results.append((assignment, run(cfg)))
    return results
