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
>= 1, and the name, an output directory's, holds no path separator. The
suite sets each cell's ``run.seed``, ``run.steps`` and ``optimizer.name``
from ``suite.base_seed``, ``suite.budgets`` and ``suite.optimizers``, so a
file that sets one of them, in its base or a rule's section, is rejected.
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

``_cell_config`` plans the configs by (optimizer, budget), in replicate order,
and ``run_suite`` runs each group as one task: a lane group
(``harness.run_lanes``) that writes each replicate's run directory with its
own run's bytes, all in one pass (``runio.write_runs``), or one cell
(``_run_cell``) for a group of one. Tasks go out longest run first; each
task's outcomes make its group's row (``ReportRow.of``).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .config import config_hash, parse_value, resolve, validate_keys, value_to_str
from .errors import ConfigurationError, ContractViolationError
from .harness import RunRecord, _build_problem, _section, _train, build_engine, run, run_lanes
from .optimizers.engine import wrong_kind
from .problems import Problem
from .rng import stable_hash
from .runio import write_run_artifacts, write_runs
from .schedules import ScheduleSpec


#: The ``suite.*`` keys with defaults; ``suite.optimizers`` and
#: ``suite.budgets`` are required comma-separated lists.
SUITE_DEFAULTS = {"suite.name": "bench", "suite.seeds": 3, "suite.base_seed": 1}
SUITE_KEYS = frozenset([*SUITE_DEFAULTS, "suite.optimizers", "suite.budgets"])
#: The run keys a suite sets for every cell, and the ``suite.*`` key each comes from; a suite file may not set them.
_SET_BY_SUITE = {"run.seed": "suite.base_seed", "run.steps": "suite.budgets", "optimizer.name": "suite.optimizers"}


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

    @classmethod
    def of(cls, optimizer: str, budget: int, outcomes: list[tuple[float | None, bool]]) -> ReportRow:
        """The unranked row of a group's ``(final_loss, diverged)`` outcomes, in replicate order, mean skipping None."""
        losses, diverged = zip(*outcomes)
        clean = [loss for loss in losses if loss is not None]
        return cls(optimizer, budget, list(losses), sum(clean) / len(clean) if clean else None, any(diverged))


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
        run_key = key if owner is None else key[len(owner) + 1 :]
        if (by := _SET_BY_SUITE.get(run_key)) is not None:
            raise ConfigurationError(f"{source}: {key} is never read; {by} sets each cell's {run_key}")
        (base_config if owner is None else overrides.setdefault(owner, {}))[run_key] = value
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
    """Each ``(label, layer, assignment)`` cell's resolved run config, in order, checked by running its first step.

    A cell resolves ``base_config < layer < {"run.seed": stable_hash(base_seed,
    *label)} < assignment``. Each distinct cell (by ``config_hash``, which
    leaves out ``run.seed``) builds its engine and schedule
    (``harness.build_engine``) on fresh ``init_blocks(0)`` of its problem, and
    ``harness._train`` runs one step of it at the engine's lr with the cell's
    ``run.clip``. Each distinct ``problem.*`` section is built once, at seed 0,
    as a run builds it (``harness._build_problem``). A step that diverges is
    the run's outcome, not an error, and passes.
    """
    problems: dict[tuple, Problem] = {}
    checked: set[str] = set()
    planned = []
    for label, layer, assignment in cells:
        cfg = resolve(base_config, layer, {"run.seed": stable_hash(base_seed, *label)}, assignment)
        if (key := config_hash(cfg)) not in checked:
            if (shape := tuple(_section(cfg, "problem").items())) not in problems:
                problems[shape] = _build_problem(cfg, 0)
            problem = problems[shape]
            blocks = problem.init_blocks(0)
            engine, _ = build_engine(cfg, problem, blocks)
            _train(problem, 0, [RunRecord({})], engine, ScheduleSpec("constant", engine.lr, 1), cfg["run.clip"], 1)
            checked.add(key)
        planned.append(cfg)
    return planned


def _cell_config(suite: SuiteSpec) -> dict[tuple[str, int], list[dict]]:
    """Every cell's checked run config (``plan_cells``): by (optimizer, budget), the replicates' in replicate order.

    Each error names the suite.
    """
    labels = [(o, b, r) for o in suite.optimizers for b in suite.budgets for r in range(suite.seeds)]
    cells = [((o, b, r), suite.overrides.get(o), {"optimizer.name": o, "run.steps": b}) for o, b, r in labels]
    try:
        planned = {}
        for (o, b, _), cfg in zip(labels, plan_cells(suite.base_config, suite.base_seed, cells)):
            planned.setdefault((o, b), []).append(cfg)
        kinds = {o: cfgs[0]["problem.kind"] for (o, _), cfgs in planned.items()}
        if len(set(kinds.values())) > 1:
            listed = ", ".join(f"{opt}: {kind}" for opt, kind in kinds.items())
            raise ConfigurationError(f"every rule must run the same problem.kind, got {listed}")
    except (ConfigurationError, ContractViolationError) as exc:
        raise ConfigurationError(f"suite {suite.name!r}: {exc}") from None
    return planned


def _run_cell(args: tuple[dict, str]) -> list[tuple[float | None, bool]]:
    """Run one cell, write its artifacts, and return its outcome ``(final_loss, diverged)``, as a list of one."""
    cfg, run_dir = args
    record = run(cfg)
    write_run_artifacts(record, run_dir)
    return [(record.final_loss, record.diverged)]


def _run_lanes(args: tuple[list[dict], list[str]]) -> list[tuple[float | None, bool]]:
    """Run one cell's replicates as a lane group, write each one's artifacts in one pass, and return their outcomes."""
    configs, run_dirs = args
    records = run_lanes(configs)
    write_runs(records, run_dirs)
    return [(record.final_loss, record.diverged) for record in records]


def run_suite(suite: SuiteSpec, out_dir: str | Path, jobs: int = 1) -> ReportTable:
    """Check every cell, then run them all (optionally in parallel) and rank per budget.

    A bad cell config, rules on different problem kinds, or ``jobs`` below 1, raise before any cell runs.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir)
    groups = sorted(_cell_config(suite).items(), key=lambda group: -group[0][1])  # longest run first, else plan order
    tasks = []  # (task function, its argument), one per group
    for (optimizer, budget), cfgs in groups:
        run_dirs = [str(out_dir / "runs" / f"{optimizer}-b{budget}-r{r}") for r in range(len(cfgs))]
        tasks.append((_run_lanes, (cfgs, run_dirs)) if len(cfgs) > 1 else (_run_cell, (cfgs[0], run_dirs[0])))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = [future.result() for future in [pool.submit(fn, args) for fn, args in tasks]]
    else:
        results = [fn(args) for fn, args in tasks]
    rows = sorted((ReportRow.of(*group, outcomes) for (group, _), outcomes in zip(groups, results)),
                  key=lambda r: (r.budget, r.diverged, math.inf if r.mean_final_loss is None else r.mean_final_loss,
                                 r.optimizer))
    table = ReportTable(suite.optimizers, suite.budgets, suite.seeds, groups[0][1][0]["problem.kind"])
    for row in rows:  # a row's rank is one more than the ranked rows of its budget
        row.rank = 1 + sum(other.budget == row.budget for other in table.rows.values())
        table.rows[(row.optimizer, row.budget)] = row
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
