"""One pass of one workload in a fresh process: ``python3 perfbench/worker.py < spec.json``.

The clock starts before ``import optlab``. The pass reads its spec (made by
``workloads.make_spec``) from stdin and prints one JSON object on stdout:
wall and set-up time, run-phase time, steps and cells done, peak memory, the
environment, and one entry per op with its digests. A traced pass (``trace``
in the spec) also returns the per-layer totals and writes its spans.

Exit code 3 means optlab could not be imported from the checkout's ``src``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402


def _import_optlab(src: Path):
    sys.path.insert(0, str(src))
    try:
        import optlab
        import optlab.bench
        import optlab.harness
        import optlab.verify
    except ImportError as exc:
        print(f"perfbench: cannot import optlab from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if Path(optlab.__file__).resolve().parent != (src / "optlab").resolve():
        print(f"perfbench: optlab was imported from {optlab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(3)
    return optlab


def _warm_up_blas():
    """First BLAS/LAPACK calls pay one-time start-up; this pass counts it in set-up."""
    import numpy as np

    a = np.arange(64.0 * 64.0).reshape(64, 64) / 4096.0 + np.eye(64)
    s = a @ a.T
    np.linalg.qr(a)
    np.linalg.eigh(s)


def environment() -> dict:
    """What the pinned digests depend on, plus the machine."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    runtime, threads = None, None
    for lib_path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None) or getattr(lib, f"openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None) or getattr(lib, f"openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                runtime, threads = get_config().decode(), get_threads()
                break
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads = threads if threads is not None else int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_runtime": runtime or blas.get("openblas configuration", "?"),
        "blas_threads": blas_threads,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }
    env["pin_key"] = f"numpy {env['numpy']} | {env['blas_runtime']} | blas_threads {blas_threads}"
    return env


def main() -> int:
    spec = json.load(sys.stdin)
    root = Path(spec["root"])
    optlab = _import_optlab(root / "src")
    spans_dir = Path(spec["scratch"]) / "spans"
    rec = None
    if spec["trace"]:
        rec = tracing.Recorder()
        tracing.install(rec, spans_dir)
    _warm_up_blas()
    import_s = time.perf_counter() - T0
    speed = Speed(every_cpu=spec["workload"] == "suite-sweep")
    import_s /= speed.sample()

    setup = workloads.SetupClock()
    workload = spec["workload"]
    out_dir = Path(spec["scratch"]) / "suite"
    try:
        if workload in ("quad-elementwise", "mlp-matrix"):
            result = workloads.run_training(optlab, spec, setup, speed)
        elif workload == "suite-sweep":
            result = workloads.run_suite(optlab, spec, setup, speed, out_dir, spec["jobs"])
        else:
            result = workloads.run_verify(optlab, spec, speed)
        raw_wall_s = time.perf_counter() - T0 - speed.seconds
        self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(
            wall_s=import_s + result["wall_s"],
            setup_s=import_s + result["setup_s"],
            raw_wall_s=raw_wall_s,
            speed_factors=speed.factors,
            peak_rss_mb=(self_ru + child_ru) / 1024.0,
            env=environment(),
        )
        if rec is not None:
            spans = rec.spans + tracing.load_shipped(spans_dir, len(rec.spans))
            factor = statistics.median(speed.factors)
            result["layers"] = tracing.layer_metrics(spans, spec["jobs"], factor)
            rec.spans = spans
            rec.dump(Path(spec["spans_out"]))
    finally:
        shutil.rmtree(spec["scratch"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
