"""optlab's benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout. The run repeats passes of workload W until
S seconds are spent; each pass is a fresh process (``worker.py``) that
imports optlab from ``src`` and runs the workload's ops. Inputs come from
the seed (``workloads.make_spec``), and every op's outputs are checked:
trajectory digests against ``pins.json``, losses, suite ranks, verify
verdicts. A failed op is recorded and counted; the run goes on.

With ``--trace 0`` the metrics are the end-to-end ones, medians over passes.
With ``--trace 1`` untraced and traced passes alternate; the metrics are
the per-layer medians over the traced passes plus the tracing overhead.
The last stdout line is the result as one JSON object; the lines before it
say the same for a reader. Details land in ``.perfbench-out/``.

Each pass runs with one BLAS thread, so the suite's pool of ``jobs``
processes uses at most ``jobs`` cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
PINS = HERE / "pins.json"

#: Every run must end well within three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0
BLAS_THREADS = "1"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


def suite_jobs() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_pass(spec: dict, pass_no: int, trace: bool, deadline: float) -> dict | None:
    """One worker process; None if it failed as a whole (crash or timeout)."""
    scratch = OUT / f"tmp-{os.getpid()}-{pass_no}"
    spec = {
        **spec,
        "root": str(ROOT),
        "scratch": str(scratch),
        "trace": trace,
        "spans_out": str(OUT / f"spans-{spec['workload']}-s{spec['seed']}.json.gz"),
    }
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    }
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        print(f"perfbench: pass {pass_no} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        _kill_group(proc)  # a crashed worker may leave pool processes behind
    if proc.returncode == 3:
        raise SystemExit(f"perfbench: optlab is not importable from {ROOT / 'src'}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: pass {pass_no} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the worker and its pool processes, and wait until they are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_ops(spec: dict) -> int:
    if "ops" in spec:
        return len(spec["ops"])
    if "cells" in spec:
        return spec["cells"]
    return len(tracing.CHECKS)


class DigestBook:
    """Pinned digests for this environment, or the first digest seen in this run."""

    def __init__(self, workload: str, variant: int):
        self.workload, self.variant = workload, str(variant)
        self.pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
        self.seen: dict[str, tuple] = {}
        self.pinned: bool | None = None

    def check(self, env: dict, op_id: str, got: tuple) -> str | None:
        table = self.pins.get("envs", {}).get(env["pin_key"], {}).get(self.workload, {}).get(self.variant)
        self.pinned = table is not None
        if table is None:
            want = self.seen.setdefault(op_id, got)
        elif op_id in table:
            want = tuple(table[op_id])
        else:
            return f"op {op_id} has no pinned digest"
        if got != want:
            return f"digest {got} != {'pinned' if self.pinned else 'first pass'} {want}"
        return None


def score_pass(result: dict, book: DigestBook, traced: bool) -> list[dict]:
    """The pass's failed ops, after the digest checks."""
    failed = []
    env = result["env"]
    for op in result["ops"]:
        if not op["ok"]:
            failed.append(op)
            continue
        if "sha256" in op:
            problem = book.check(env, op["id"], (op["sha256"], op["final_loss"]))
            if problem:
                kind = "TraceDigestMismatch" if traced else "DigestMismatch"
                failed.append({**op, "ok": False, "kind": kind, "message": problem})
    if "report_sha256" in result:
        problem = book.check(env, "report.json", (result["report_sha256"], ""))
        if problem:
            failed.append({"id": "report.json", "ok": False, "kind": "DigestMismatch", "message": problem})
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "optlab" / "__init__.py").is_file():
        print(f"perfbench: no optlab sources under {ROOT / 'src'}; run from an optlab checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    budget_end = started + args.seconds
    spec = {**workloads.make_spec(args.workload, args.seed), "seed": args.seed, "jobs": suite_jobs()}
    book = DigestBook(args.workload, spec["variant"])
    passes: list[tuple[bool, dict]] = []
    failures: list[dict] = []
    attempted = 0
    pass_s: list[float] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.monotonic()
        result = run_pass(spec, len(pass_s), traced, deadline)
        pass_s.append(time.monotonic() - pass_start)
        if result is None:
            n_ops = expected_ops(spec)
            attempted += n_ops
            failures.append({"id": f"pass-{len(pass_s)}", "kind": "PassFailed", "message": "worker crashed or timed out", "count": n_ops})
        else:
            passes.append((traced, result))
            attempted += len(result["ops"])
            failures.extend(score_pass(result, book, traced))
        now = time.monotonic()
        need_more = args.trace and len(passes) < 2
        est = statistics.median(pass_s)
        if now + est > deadline:
            break
        if now + est > budget_end and not need_more:
            break
    traced_runs = [r for traced, r in passes if traced]
    plain = [r for traced, r in passes if not traced]
    if not plain or (args.trace and not traced_runs):
        print("perfbench: not enough passes completed", file=sys.stderr)
        return 1

    failed_ops = sum(f.get("count", 1) for f in failures)
    env = passes[-1][1]["env"]
    env["pinned_digests"] = bool(book.pinned)
    env["suite_jobs"] = spec["jobs"]
    if args.trace:
        names = [name for name, _, _ in tracing.PER_LAYER]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        values = {n: statistics.median(r["layers"][n] for r in traced_runs) for n in names if n != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced_runs) / statistics.median(r["wall_s"] for r in plain)
        metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "steps_per_s": statistics.median(r["steps"] / r["run_s"] if r["run_s"] > 0 else 0.0 for r in plain),
            "cells_per_s": statistics.median(r["cells"] / r["run_s"] if r["run_s"] > 0 else 0.0 for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ops_ok_ratio": (attempted - failed_ops) / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": spec["variant"],
        "trace": args.trace,
        "env": env,
        "passes": [
            {"traced": t, **{k: r[k] for k in ("wall_s", "setup_s", "run_s", "raw_wall_s", "speed_factors", "steps", "cells", "peak_rss_mb")}}
            for t, r in passes
        ],
        "failures": failures,
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed} (variant {spec['variant']}): {len(passes)} passes, {attempted} ops, {failed_ops} failed")
    for f in failures[:20]:
        print(f"FAILED {f['id']}: {f['kind']}: {f['message']}")
    print(f"ops_failed_ratio = {failed_ops / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed_ops == 0, "attempted": attempted, "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
