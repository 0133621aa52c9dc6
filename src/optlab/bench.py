"""Benchmark suites: optimizers x budgets x seeds, ranked by mean final loss.

A suite file uses the flat config grammar with a ``suite.`` section::

    suite.optimizers = adamw, signum
    suite.budgets = 200, 400
    suite.seeds = 3
    suite.base_seed = 1
    problem.kind = quadratic          # everything else: base run config
    signum.optimizer.lr = 0.003       # per-optimizer overrides

``config.validate_keys`` checks the ``suite.*`` keys against
``SUITE_DEFAULTS`` as it checks run keys; budgets are distinct whole numbers
>= 1, and the name, an output directory's, holds no path separator.
``plan_cells``, the cell planner of ``run_suite`` and ``harness.sweep``,
builds each distinct cell as its run will and runs its first step before any
cell runs, so the problem, the engine and the rule's own step checks judge
every value (a ``beta1`` of 1.5, a negative ``eps`` or ``lr_1d``), and a
``SuiteSpec`` built in code is checked as a parsed file is.
Every rule must resolve to the same ``problem.kind``: ranks compare final
losses across rules, and losses of different problems are not comparable.

Each cell gets an independent seed derived from (base seed, optimizer,
budget, replicate). Diverged cells are never dropped: an aggregate with any
diverged seed is flagged and ranked behind all clean aggregates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .config import config_hash, parse_value, resolve, validate_keys, value_to_str
from .errors import ConfigurationError, ContractViolationError
from .harness import RunRecord, _section, _train, build_engine, run
from .optimizers.engine import wrong_kind
from .problems import Problem, build_problem
from .rng import stable_hash
from .runio import write_run_artifacts
from .schedules import ScheduleSpec


#: The ``suite.*`` keys with defaults; ``suite.optimizers`` and
#: ``suite.budgets`` are required comma-separated lists.
SUITE_DEFAULTS = {"suite.name": "bench", "suite.seeds": 3, "suite.base_seed": 1}
SUITE_KEYS = frozenset([*SUITE_DEFAULTS, "suite.optimizers", "suite.budgets"])


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

    def ranked(self, budget: int) -> list[ReportRow]:
        """The rows of ``budget``, best rank first."""
        return sorted((self.rows[(o, budget)] for o in self.optimizers), key=lambda r: r.rank)

    def csv_text(self) -> str:
        lines = ["optimizer,budget,rank,mean_final_loss,diverged,seeds"]
        for budget in self.budgets:
            for row in self.ranked(budget):
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
            for row in self.ranked(budget):
                loss = "diverged" if row.mean_final_loss is None else f"{row.mean_final_loss:.6g}"
                flag = "  [diverged seeds]" if row.diverged and row.mean_final_loss is not None else ""
                lines.append(f"  {row.rank:>2}. {row.optimizer:<{width}} {loss}{flag}")
        return "\n".join(lines)


def parse_suite(flat: dict, source: str = "suite") -> SuiteSpec:
    meta = {k: v for k, v in flat.items() if k.startswith("suite.")}
    validate_keys(meta, SUITE_KEYS, SUITE_DEFAULTS, source=f"{source}: suite")
    meta = {**SUITE_DEFAULTS, **meta}
    if "/" in meta["suite.name"] or "\\" in meta["suite.name"]:  # the name becomes an output directory
        raise ConfigurationError(f"{source}: suite.name must not contain a path separator, got {meta['suite.name']!r}")
    optimizers = _csv_list(meta, "suite.optimizers", "optimizer", source)
    budgets = _csv_list(meta, "suite.budgets", "budget", source, parse=parse_value)
    if any(wrong_kind(b, 1) or b < 1 for b in budgets):
        raise ConfigurationError(f"{source}: suite.budgets must be whole numbers >= 1, got {budgets}")
    if meta["suite.seeds"] < 1:
        raise ConfigurationError(f"{source}: suite.seeds must be >= 1, got {meta['suite.seeds']}")
    base_config: dict = {}
    overrides: dict[str, dict] = {}
    for key, value in flat.items():
        if key.startswith("suite."):
            continue
        owner = next((o for o in optimizers if key.startswith(o + ".")), None)
        if owner is None:
            base_config[key] = value
        else:
            overrides.setdefault(owner, {})[key[len(owner) + 1 :]] = value
    return SuiteSpec(meta["suite.name"], tuple(optimizers), tuple(budgets), meta["suite.seeds"],
                     meta["suite.base_seed"], base_config, overrides)


def _csv_list(meta: dict, key: str, noun: str, source: str, parse=str.strip) -> list:
    if meta.get(key) is None:
        raise ConfigurationError(f"{source}: missing {key}")
    items = [parse(item) for item in str(meta[key]).split(",") if item.strip()]
    if not items:
        raise ConfigurationError(f"{source}: {key} must list at least one {noun}")
    if len(set(items)) != len(items):
        raise ConfigurationError(f"{source}: {key} has duplicates")
    return items


def plan_cells(base_config: dict, base_seed: int, cells) -> list[dict]:
    """The resolved run config of each ``(label, layer, assignment)`` cell, checked by running its first step.

    A cell resolves ``base_config < layer < {"run.seed": stable_hash(base_seed,
    *label)} < assignment``. Each distinct cell (by ``config_hash``, which
    leaves out ``run.seed``) builds its engine and schedule
    (``harness.build_engine``) on fresh ``init_blocks(0)`` of its problem, and
    ``harness._train`` runs one step of it at the engine's lr with the cell's
    ``run.clip``. Each distinct ``problem.*`` section is built once, at seed 0.
    A step that diverges is the run's outcome, not an error, and passes.
    """
    problems: dict[tuple, Problem] = {}
    stepped = set()
    configs = []
    for label, layer, assignment in cells:
        cfg = resolve(base_config, layer, {"run.seed": stable_hash(base_seed, *label)}, assignment)
        configs.append(cfg)
        if (key := config_hash(cfg)) in stepped:
            continue
        stepped.add(key)
        section = _section(cfg, "problem")
        if (shape := tuple(section.items())) not in problems:
            problems[shape] = build_problem(section.pop("kind"), 0, **section)
        problem = problems[shape]
        blocks = problem.init_blocks(0)
        engine, _ = build_engine(cfg, problem, blocks)
        _train(RunRecord({}), problem, blocks, engine, ScheduleSpec("constant", engine.lr, 1), 0, cfg["run.clip"], 1)
    return configs


def _cell_config(suite: SuiteSpec) -> dict[tuple[str, int, int], dict]:
    """Every cell's checked run config by (optimizer, budget, replicate); each error names the suite."""
    labels = [(o, b, r) for o in suite.optimizers for b in suite.budgets for r in range(suite.seeds)]
    cells = [((o, b, r), suite.overrides.get(o), {"optimizer.name": o, "run.steps": b}) for o, b, r in labels]
    try:
        configs = plan_cells(suite.base_config, suite.base_seed, cells)
        kinds = {o: cfg["problem.kind"] for (o, _, _), cfg in zip(labels, configs)}
        if len(set(kinds.values())) > 1:
            listed = ", ".join(f"{opt}: {kind}" for opt, kind in kinds.items())
            raise ConfigurationError(f"every rule must run the same problem.kind, got {listed}")
    except (ConfigurationError, ContractViolationError) as exc:
        raise ConfigurationError(f"suite {suite.name!r}: {exc}") from None
    return dict(zip(labels, configs))


def _run_cell(args: tuple[dict, str]) -> tuple[float | None, bool]:
    """Run one cell, write its artifacts, and return its ``(final_loss, diverged)``."""
    cfg, run_dir = args
    record = run(cfg)
    write_run_artifacts(record, run_dir)
    return record.final_loss, record.diverged


def run_suite(suite: SuiteSpec, out_dir: str | Path, jobs: int = 1) -> ReportTable:
    """Check every cell, then run them all (optionally in parallel) and rank per budget.

    A bad cell config, or rules on different problem kinds, raise before any cell runs.
    """
    out_dir = Path(out_dir)
    configs = _cell_config(suite)
    cells = [(cfg, str(out_dir / "runs" / f"{o}-b{b}-r{r}")) for (o, b, r), cfg in configs.items()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(args) for args in cells]
    by_cell = dict(zip(configs, outcomes))
    table = ReportTable(suite.optimizers, suite.budgets, suite.seeds, cells[0][0]["problem.kind"])
    for budget in suite.budgets:
        rows = []
        for optimizer in suite.optimizers:
            losses, diverged = zip(*(by_cell[(optimizer, budget, rep)] for rep in range(suite.seeds)))
            clean = [loss for loss in losses if loss is not None]
            mean = sum(clean) / len(clean) if clean else None
            rows.append(ReportRow(optimizer, budget, list(losses), mean, any(diverged)))
        rows.sort(key=lambda r: (r.diverged, math.inf if r.mean_final_loss is None else r.mean_final_loss, r.optimizer))
        for rank, row in enumerate(rows, start=1):
            row.rank = rank
            table.rows[(row.optimizer, budget)] = row
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
