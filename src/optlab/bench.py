"""Benchmark suites: optimizers x budgets x seeds, ranked by mean final loss.

A suite file uses the flat config grammar with a ``suite.`` section::

    suite.optimizers = adamw, signum
    suite.budgets = 200, 400
    suite.seeds = 3
    suite.base_seed = 1
    problem.kind = quadratic          # everything else: base run config
    signum.optimizer.lr = 0.003       # per-optimizer overrides

Each cell gets an independent seed derived from (base seed, optimizer,
budget, replicate). Diverged cells are never dropped: an aggregate with any
diverged seed is flagged and ranked behind all clean aggregates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .config import KNOWN_KEYS, config_hash, resolve, value_to_str
from .errors import ConfigurationError
from .harness import optimizer_params, run
from .optimizers import OPTIMIZER_NAMES, OPTIMIZERS
from .presets import get_preset
from .rng import stable_hash
from .runio import write_run_artifacts


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    optimizers: tuple[str, ...]
    budgets: tuple[int, ...]
    seeds: int
    base_seed: int
    base_config: dict
    overrides: dict  # optimizer name -> {config key: value}


@dataclass
class ReportRow:
    optimizer: str
    budget: int
    losses: list[float | None]
    mean_final_loss: float | None
    diverged: bool
    rank: int = 0


@dataclass
class ReportTable:
    """Ranking rows keyed by (optimizer, budget); ranks permute 1..N per budget."""

    optimizers: tuple[str, ...]
    budgets: tuple[int, ...]
    seeds: int
    problem: str
    rows: dict[tuple[str, int], ReportRow] = field(default_factory=dict)

    def rank_of(self, optimizer: str, budget: int) -> int:
        return self.rows[(optimizer, budget)].rank

    def csv_text(self) -> str:
        lines = ["optimizer,budget,rank,mean_final_loss,diverged,seeds"]
        for budget in self.budgets:
            ordered = sorted((self.rows[(o, budget)] for o in self.optimizers), key=lambda r: r.rank)
            for row in ordered:
                mean = "" if row.mean_final_loss is None else value_to_str(row.mean_final_loss)
                lines.append(
                    f"{row.optimizer},{row.budget},{row.rank},{mean},"
                    f"{'true' if row.diverged else 'false'},{self.seeds}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "seeds": self.seeds,
            "budgets": list(self.budgets),
            "rows": [
                {
                    "optimizer": row.optimizer,
                    "budget": row.budget,
                    "rank": row.rank,
                    "mean_final_loss": row.mean_final_loss,
                    "diverged": row.diverged,
                    "final_losses": row.losses,
                }
                for key in sorted(self.rows)
                for row in [self.rows[key]]
            ],
        }

    def text_table(self) -> str:
        width = max(len(o) for o in self.optimizers) + 2
        lines = []
        for budget in self.budgets:
            lines.append(f"budget T={budget}")
            ordered = sorted((self.rows[(o, budget)] for o in self.optimizers), key=lambda r: r.rank)
            for row in ordered:
                loss = "diverged" if row.mean_final_loss is None else f"{row.mean_final_loss:.6g}"
                flag = "  [diverged seeds]" if row.diverged and row.mean_final_loss is not None else ""
                lines.append(f"  {row.rank:>2}. {row.optimizer:<{width}} {loss}{flag}")
        return "\n".join(lines)


def parse_suite(flat: dict, source: str = "suite") -> SuiteSpec:
    meta = {k: flat[k] for k in flat if k.startswith("suite.")}
    name = meta.get("suite.name", "bench")
    optimizers = _csv_list(meta.get("suite.optimizers"), source, "suite.optimizers")
    if not optimizers:
        raise ConfigurationError(f"{source}: suite.optimizers must list at least one optimizer")
    if len(set(optimizers)) != len(optimizers):
        raise ConfigurationError(f"{source}: suite.optimizers has duplicates")
    for opt in optimizers:
        if opt not in OPTIMIZER_NAMES:
            raise ConfigurationError(
                f"{source}: unknown optimizer {opt!r}; valid names: {', '.join(OPTIMIZER_NAMES)}"
            )
    budgets = tuple(int(b) for b in _csv_list(meta.get("suite.budgets"), source, "suite.budgets"))
    if not budgets:
        raise ConfigurationError(f"{source}: suite.budgets must list at least one budget")
    seeds = int(meta.get("suite.seeds", 3))
    if seeds < 1:
        raise ConfigurationError(f"{source}: suite.seeds must be >= 1, got {seeds}")
    base_seed = int(meta.get("suite.base_seed", 1))
    base_config: dict = {}
    overrides: dict[str, dict] = {}
    for key, value in flat.items():
        if key.startswith("suite."):
            continue
        owner = next((o for o in OPTIMIZER_NAMES if key.startswith(o + ".")), None)
        if owner is not None and owner in optimizers:
            sub = key[len(owner) + 1 :]
            if sub not in KNOWN_KEYS:
                raise ConfigurationError(f"{source}: unknown config key {sub!r} in override {key!r}")
            overrides.setdefault(owner, {})[sub] = value
        elif key in KNOWN_KEYS:
            base_config[key] = value
        else:
            raise ConfigurationError(f"{source}: unknown key {key!r}")
    # every cell's hyperparameters are checked here, before any cell runs
    for opt in optimizers:
        try:
            OPTIMIZERS[opt].check_params(optimizer_params({**base_config, **overrides.get(opt, {})}))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{source}: {exc}") from None
    return SuiteSpec(name, tuple(optimizers), budgets, seeds, base_seed, base_config, overrides)


def _csv_list(value, source, key) -> list[str]:
    if value is None:
        raise ConfigurationError(f"{source}: missing {key}")
    return [item.strip() for item in str(value).split(",") if item.strip()]


def _cell_config(suite: SuiteSpec, optimizer: str, budget: int, replicate: int) -> dict:
    file_cfg = dict(suite.base_config)
    file_cfg.update(suite.overrides.get(optimizer, {}))
    file_cfg["optimizer.name"] = optimizer
    preset_cfg = None
    tag = file_cfg.get("optimizer.preset")
    if tag:
        preset_cfg = get_preset(optimizer, str(tag))
    cfg = resolve(file_cfg, preset_cfg)
    cfg["run.steps"] = budget
    cfg["run.seed"] = stable_hash(suite.base_seed, optimizer, budget, replicate)
    return cfg


def _run_cell(args: tuple[dict, str]) -> dict:
    cfg, run_dir = args
    record = run(cfg)
    write_run_artifacts(record, run_dir)
    return {
        "final_loss": record.final_loss,
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
    }


def run_suite(suite: SuiteSpec, out_dir: str | Path, jobs: int = 1) -> ReportTable:
    """Execute all cells (optionally in parallel) and rank per budget."""
    out_dir = Path(out_dir)
    cells = []
    for optimizer in suite.optimizers:
        for budget in suite.budgets:
            for rep in range(suite.seeds):
                cfg = _cell_config(suite, optimizer, budget, rep)
                run_dir = out_dir / "runs" / f"{optimizer}-b{budget}-r{rep}"
                cells.append(((optimizer, budget, rep), (cfg, str(run_dir))))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, [args for _, args in cells]))
    else:
        outcomes = [_run_cell(args) for _, args in cells]
    by_cell = {key: outcome for (key, _), outcome in zip(cells, outcomes)}
    problem = suite.base_config.get("problem.kind", "quadratic")
    table = ReportTable(suite.optimizers, suite.budgets, suite.seeds, str(problem))
    for optimizer in suite.optimizers:
        for budget in suite.budgets:
            outcomes = [by_cell[(optimizer, budget, rep)] for rep in range(suite.seeds)]
            losses = [o["final_loss"] for o in outcomes]
            clean = [loss for loss in losses if loss is not None]
            mean = sum(clean) / len(clean) if clean else None
            diverged = any(o["diverged"] for o in outcomes)
            table.rows[(optimizer, budget)] = ReportRow(optimizer, budget, losses, mean, diverged)
    for budget in suite.budgets:
        def sort_key(opt: str):
            row = table.rows[(opt, budget)]
            mean = math.inf if row.mean_final_loss is None else row.mean_final_loss
            return (1 if row.diverged else 0, mean, opt)

        for rank, opt in enumerate(sorted(suite.optimizers, key=sort_key), start=1):
            table.rows[(opt, budget)].rank = rank
    return table


def suite_hash(suite: SuiteSpec) -> str:
    material = {
        "suite.name": suite.name,
        "suite.optimizers": ",".join(suite.optimizers),
        "suite.budgets": ",".join(str(b) for b in suite.budgets),
        "suite.seeds": suite.seeds,
        "suite.base_seed": suite.base_seed,
        **{f"base.{k}": v for k, v in suite.base_config.items()},
        **{f"{o}.{k}": v for o, kv in suite.overrides.items() for k, v in kv.items()},
    }
    return config_hash(material)
