"""Pin trajectory digests for this machine's numpy/BLAS: ``python3 perfbench/pin.py``.

Runs one untraced pass of every input variant of the workloads that train,
and stores, per op, the sha256 of record.csv without ``step_time_ns`` and
the final loss (plus the suite's report.json digest) in ``pins.json`` under
the environment's pin key (numpy version, BLAS runtime, BLAS threads). Run
it only on a commit whose numerics are the reference; the benchmark then
counts any op whose digest differs as failed.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

PINNED_WORKLOADS = ("quad-elementwise", "mlp-matrix", "suite-sweep")


def main() -> int:
    pins = json.loads(run.PINS.read_text(encoding="utf-8")) if run.PINS.is_file() else {"envs": {}}
    for workload in PINNED_WORKLOADS:
        for variant in range(workloads.VARIANTS):
            spec = {**workloads.make_spec(workload, variant), "seed": variant, "jobs": run.suite_jobs()}
            result = run.run_pass(spec, variant, False, time.monotonic() + run.HARD_LIMIT_S)
            if result is None:
                print(f"pin: {workload} variant {variant}: pass failed", file=sys.stderr)
                return 1
            bad = [op for op in result["ops"] if not op["ok"]]
            if bad:
                print(f"pin: {workload} variant {variant}: {bad[0]['id']}: {bad[0]['message']}", file=sys.stderr)
                return 1
            table = {op["id"]: [op["sha256"], op["final_loss"]] for op in result["ops"]}
            if "report_sha256" in result:
                table["report.json"] = [result["report_sha256"], ""]
            env = result["env"]
            pins["envs"].setdefault(env["pin_key"], {}).setdefault(workload, {})[str(variant)] = table
            print(f"pinned {workload} variant {variant}: {len(table)} digests", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
