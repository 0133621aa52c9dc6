"""The four workloads: their inputs, made from the seed, and how one pass runs them.

This module imports only the standard library, so the worker can start its
clock before ``import optlab``. Everything that touches the program receives
the imported ``optlab`` package as an argument.

A seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``). The
variants differ only in the random seeds handed to the program, never in
sizes, so a run costs the same work whatever its seed, and every variant has
pinned trajectory digests (see ``pins.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

VARIANTS = 16

#: The nine rules that have no matrix path of their own (mars-* route every
#: block of the quadratic to their AdamW group, so they get ``lr_1d`` too).
QUAD_RULES = ("adamw", "adopt", "ademamix", "lion", "signum", "sf-adamw", "prodigy", "mars-adamw", "mars-lion")
QUAD_LR = {
    "adamw": 0.05,
    "adopt": 0.05,
    "ademamix": 0.05,
    "lion": 0.002,
    "signum": 0.003,
    "sf-adamw": 0.05,
    "prodigy": 1.0,
    "mars-adamw": 0.05,
    "mars-lion": 0.05,
}
QUAD_STEPS = 1000

#: Matrix rules plus AdamW as the plain baseline, on a rectangular w1.
MLP_RULES = ("muon", "dmuon", "soap", "mars-shampoo", "sophia", "adamw")
MLP_LR = {"muon": 0.02, "dmuon": 0.003, "soap": 0.003, "mars-shampoo": 0.003, "sophia": 0.001, "adamw": 0.003}
MLP_STEPS = 150

SUITE_RULES = ("adamw", "adopt", "signum", "lion")
SUITE_LR = {"adamw": 0.05, "adopt": 0.05, "signum": 0.003, "lion": 0.001}
SUITE_BUDGETS = (40, 80, 160)
SUITE_SEEDS = 8

WORKLOADS = ("quad-elementwise", "mlp-matrix", "suite-sweep", "verify")

#: How strongly each workload's run phase slows when the calibration kernel
#: slows (see speed.py): the slope of log run-phase time on log kernel time,
#: fitted over every pass of ten runs per workload on the shared host the
#: benchmark was defined on. BLAS-bound steps (mlp) and a process pool
#: (suite) feel the host's slow state less than interpreted Python does.
#: Set-up (import, RNG draws, config) is interpreted Python: exponent 1.
SENSITIVITY = {"quad-elementwise": 1.0, "mlp-matrix": 0.63, "suite-sweep": 0.7, "verify": 1.0}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def derived_seed(*parts) -> int:
    """A 63-bit run seed from the workload variant; independent of optlab's own hashing."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_spec(workload: str, seed: int) -> dict:
    """The inputs of one workload, as plain JSON data."""
    variant = variant_of(seed)
    if workload == "quad-elementwise":
        base = {
            "problem.kind": "quadratic",
            "problem.dim": 64,
            "problem.condition": 100.0,
            "problem.noise": 1.0,
            "problem.batch_size": 1,
            "schedule.family": "cosine",
            "schedule.warmup_steps": 50,
            "run.steps": QUAD_STEPS,
            "run.clip": 10.0,
        }
        ops = []
        for rule in QUAD_RULES:
            cfg = {**base, "optimizer.name": rule, "optimizer.lr": QUAD_LR[rule]}
            if rule.startswith("mars-"):
                cfg["optimizer.lr_1d"] = QUAD_LR[rule]
            cfg["run.seed"] = derived_seed(workload, variant, rule)
            ops.append({"id": rule, "config": cfg})
        return {"workload": workload, "variant": variant, "ops": ops}
    if workload == "mlp-matrix":
        base = {
            "problem.kind": "mlp",
            "problem.in_dim": 64,
            "problem.hidden": 256,
            "problem.classes": 10,
            "problem.samples": 1024,
            "problem.batch_size": 64,
            "schedule.family": "cosine",
            "schedule.warmup_steps": 10,
            "run.steps": MLP_STEPS,
            "run.clip": 1.0,
        }
        ops = [
            {
                "id": rule,
                "config": {
                    **base,
                    "optimizer.name": rule,
                    "optimizer.lr": MLP_LR[rule],
                    "run.seed": derived_seed(workload, variant, rule),
                },
            }
            for rule in MLP_RULES
        ]
        return {"workload": workload, "variant": variant, "ops": ops}
    if workload == "suite-sweep":
        flat = {
            "suite.name": "perfbench",
            "suite.optimizers": ", ".join(SUITE_RULES),
            "suite.budgets": ", ".join(str(b) for b in SUITE_BUDGETS),
            "suite.seeds": SUITE_SEEDS,
            "suite.base_seed": derived_seed(workload, variant),
            "problem.kind": "quadratic",
            "problem.dim": 32,
            "problem.condition": 30.0,
            "problem.noise": 2.0,
            "problem.batch_size": 4,
            "schedule.family": "cosine",
            "schedule.warmup_steps": 10,
            "run.clip": 1.0,
        }
        for rule in SUITE_RULES:
            flat[f"{rule}.optimizer.lr"] = SUITE_LR[rule]
        cells = len(SUITE_RULES) * len(SUITE_BUDGETS) * SUITE_SEEDS
        return {"workload": workload, "variant": variant, "suite": flat, "cells": cells}
    if workload == "verify":
        # verify's checks carry their own fixed inputs; the seed only labels the run.
        return {"workload": workload, "variant": variant}
    raise ValueError(f"unknown workload {workload!r}")


def stripped_csv_digest(csv_text: str) -> str:
    """sha256 of record.csv without its last column (step_time_ns, a wall time)."""
    lines = [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def failure(op_id: str, exc: BaseException) -> dict:
    return {"id": op_id, "ok": False, "kind": type(exc).__name__, "message": str(exc)[:300]}


def _training_check(record) -> str | None:
    """Why a finished run is wrong for this workload, or None."""
    if record.diverged:
        return f"diverged at step {record.divergence_step}"
    if record.final_loss is None or not math.isfinite(record.final_loss):
        return f"final loss {record.final_loss!r} is not finite"
    if not record.rows or record.final_loss >= record.rows[0].loss:
        return "final loss is not below the first logged loss"
    return None


class SetupClock:
    """Accumulates the wall time of the program's set-up entry points."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        clock = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.seconds += time.perf_counter() - start

        setattr(module, attr, timed)


def run_training(optlab, spec: dict, setup: SetupClock, speed) -> dict:
    """quad-elementwise and mlp-matrix: one ``harness.run`` per op."""
    harness = optlab.harness
    setup.wrap(harness, "setup_run")
    sensitivity = SENSITIVITY[spec["workload"]]
    records, ops = [], []
    setup_s = run_s = 0.0
    for op in spec["ops"]:
        before, start = setup.seconds, time.perf_counter()
        try:
            records.append((op["id"], harness.run(op["config"])))
        except Exception as exc:  # one failed run must not stop the workload
            ops.append(failure(op["id"], exc))
        op_s, op_setup = time.perf_counter() - start, setup.seconds - before
        factor = speed.factor()
        setup_s += op_setup / factor
        run_s += (op_s - op_setup) / factor**sensitivity
    steps = 0
    for op_id, record in records:
        steps += len(record.rows)
        problem = _training_check(record)
        entry = {
            "id": op_id,
            "ok": problem is None,
            "sha256": stripped_csv_digest(record.csv_text()),
            "final_loss": repr(record.final_loss),
        }
        if problem:
            entry.update(kind="UnexpectedResult", message=problem)
        ops.append(entry)
    return {"wall_s": setup_s + run_s, "setup_s": setup_s, "run_s": run_s, "steps": steps, "cells": len(records), "ops": ops}


def run_suite(optlab, spec: dict, setup: SetupClock, speed, out_dir: Path, jobs: int) -> dict:
    """suite-sweep: one ``bench.run_suite`` call; every cell is one op."""
    bench = optlab.bench
    setup.wrap(bench, "_cell_config")
    sensitivity = SENSITIVITY[spec["workload"]]
    start = time.perf_counter()
    try:
        suite = bench.parse_suite(dict(spec["suite"]), source="perfbench")
    except Exception as exc:
        elapsed = time.perf_counter() - start
        parse_s = elapsed / speed.factor()
        return {"wall_s": parse_s, "setup_s": parse_s, "run_s": 0.0, "steps": 0, "cells": 0, "ops": [failure("suite", exc)] * spec["cells"]}
    elapsed = time.perf_counter() - start
    parse_s = elapsed / speed.factor()
    start = time.perf_counter()
    try:
        table = bench.run_suite(suite, out_dir, jobs=jobs)
        failed = None
    except Exception as exc:  # run_suite propagates any cell's exception: all cells fail
        failed = exc
    elapsed = time.perf_counter() - start
    factor = speed.factor()
    config_s = setup.seconds / factor
    run_s = (elapsed - setup.seconds) / factor**sensitivity
    if failed is not None:
        return {"wall_s": parse_s + config_s + run_s, "setup_s": parse_s + config_s, "run_s": run_s, "steps": 0, "cells": 0, "ops": [failure("suite", failed)] * spec["cells"]}
    report = json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n"
    report_problem = None
    if any(row.diverged for row in table.rows.values()):
        report_problem = "a suite cell diverged"
    for budget in suite.budgets:
        ranks = sorted(table.rank_of(o, budget) for o in suite.optimizers)
        if ranks != list(range(1, len(suite.optimizers) + 1)):
            report_problem = f"ranks at budget {budget} are not a permutation"
    ops, steps = [], 0
    run_dirs = sorted(p for p in (out_dir / "runs").iterdir() if p.is_dir())
    for run_dir in run_dirs:
        try:
            csv_text = (run_dir / "record.csv").read_text(encoding="utf-8")
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            ops.append(failure(run_dir.name, exc))
            continue
        steps += len(csv_text.splitlines()) - 1
        entry = {
            "id": run_dir.name,
            "ok": report_problem is None,
            "sha256": stripped_csv_digest(csv_text),
            "final_loss": repr(summary.get("final_loss")),
        }
        if report_problem:
            entry.update(kind="UnexpectedResult", message=report_problem)
        ops.append(entry)
    missing = spec["cells"] - len(run_dirs)
    if missing > 0:
        ops.extend([{"id": "missing-cell", "ok": False, "kind": "MissingArtifacts", "message": "cell wrote no run directory"}] * missing)
    return {
        "wall_s": parse_s + config_s + run_s,
        "setup_s": parse_s + config_s,
        "run_s": run_s,
        "steps": steps,
        "cells": len(run_dirs),
        "ops": ops,
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }


def run_verify(optlab, spec: dict, speed) -> dict:
    """verify: ``verify.run_all_checks()``; every check is one op."""
    verify = optlab.verify
    start = time.perf_counter()
    try:
        results = verify.run_all_checks()
    except Exception:
        # run_all_checks stops at the first check that raises; rerun each check
        # alone so that one exception fails only its own check.
        results = []
        for check in verify.ALL_CHECKS:
            try:
                results.append(check())
            except Exception as exc:
                results.append(failure(check.__name__, exc))
    elapsed = time.perf_counter() - start
    run_s = elapsed / speed.factor() ** SENSITIVITY[spec["workload"]]
    ops = []
    for result in results:
        if isinstance(result, dict):
            ops.append(result)
        elif result.passed:
            ops.append({"id": result.name, "ok": True})
        else:
            ops.append({"id": result.name, "ok": False, "kind": "CheckFailed", "message": result.detail})
    # A verify "step" is one oracle step: each oracle check drives ORACLE_STEPS
    # steps of a rule through both routes.
    steps = verify.ORACLE_STEPS * len(verify.ORACLE_CHECKS)
    return {"wall_s": run_s, "setup_s": 0.0, "run_s": run_s, "steps": steps, "cells": len(results), "ops": ops}
