"""Span recorder for the traced run, installed by wrapping optlab's public boundaries.

Only the traced worker installs it; untraced passes run the program as
shipped. A span is ``[name, start_ns, end_ns, parent, run_id, tag, units]``:
``parent`` indexes the enclosing open span (-1 at top level), ``run_id`` names
the op (run, cell or check) it belongs to, ``tag`` refines the name (the rule
of an optimizer step, the name of a verify check) and ``units`` is the work
the call was asked for (draws, bytes, flops), 1 when only calls are counted.

Self time is a span's duration minus the durations of its direct children;
spans nest strictly within one process, so that is the uncovered part.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import statistics
import time
from pathlib import Path

#: Every optimizer name, for the per-rule metrics.
RULES = (
    "adamw",
    "adopt",
    "ademamix",
    "lion",
    "signum",
    "muon",
    "dmuon",
    "soap",
    "sophia",
    "sf-adamw",
    "prodigy",
    "mars-adamw",
    "mars-lion",
    "mars-shampoo",
)

#: ``verify.ALL_CHECKS`` entries, by function name without the ``check_`` prefix.
CHECKS = (
    "oracle_adamw",
    "oracle_adopt",
    "oracle_ademamix",
    "oracle_lion",
    "oracle_signum",
    "oracle_muon",
    "oracle_dmuon",
    "oracle_soap",
    "oracle_sophia",
    "oracle_sfadamw",
    "oracle_prodigy",
    "oracle_mars_adamw",
    "oracle_mars_lion",
    "oracle_mars_shampoo",
    "matmul_vs_loops",
    "qr_properties",
    "eigen_properties",
    "svd_values",
    "rng_streams",
    "schedule_endpoints",
    "newton_schulz_identity",
    "newton_schulz_band",
    "soap_identity_reduction",
    "sign_scale_invariance",
    "prodigy_adaptation",
    "sf_convex_combination",
    "finite_differences",
    "zero_grad_fixed_points",
    "muon_wd_independence",
    "clip_examples",
    "run_determinism",
)

#: (name, unit, better) of every per-layer metric, in report order. Times
#: named ``*_s`` are self times unless the README says otherwise.
PER_LAYER = (
    [
        ("rng.normal_s", "s", "lower"),
        ("rng.normal_draws", "count", "lower"),
        ("rng.indices_s", "s", "lower"),
        ("rng.indices_draws", "count", "lower"),
        ("rng.uniform_s", "s", "lower"),
        ("rng.uniform_calls", "count", "lower"),
        ("rng.streams", "count", "lower"),
        ("problems.build_s", "s", "lower"),
        ("problems.loss_and_grad_s", "s", "lower"),
        ("problems.loss_and_grad_calls", "count", "lower"),
        ("problems.gnb_grad_s", "s", "lower"),
        ("problems.full_loss_s", "s", "lower"),
        ("harness.clip_s", "s", "lower"),
        ("harness.loop_self_s", "s", "lower"),
        ("blocks.global_norm_s", "s", "lower"),
        ("blocks.global_norm_calls", "count", "lower"),
        ("schedules.lr_at_s", "s", "lower"),
    ]
    + [(f"optimizers.step_s.{rule}", "s", "lower") for rule in RULES]
    + [(f"optimizers.step_ms_p50.{rule}", "ms", "lower") for rule in RULES]
    + [
        ("optimizers.step_ms_p99.soap", "ms", "lower"),
        ("optimizers.finite_check_s", "s", "lower"),
        ("optimizers.finite_check_calls", "count", "lower"),
        ("optimizers.make_s", "s", "lower"),
        ("linalg.qr_s", "s", "lower"),
        ("linalg.qr_calls", "count", "lower"),
        ("linalg.eigh_s", "s", "lower"),
        ("linalg.eigh_calls", "count", "lower"),
        ("muon.newton_schulz_s", "s", "lower"),
        ("muon.newton_schulz_calls", "count", "lower"),
        ("muon.newton_schulz_gflop_computed", "GFLOP", "lower"),
        ("runio.write_s", "s", "lower"),
        ("runio.bytes", "bytes", "lower"),
        ("bench.cell_s_p50", "s", "lower"),
        ("bench.cell_s_max", "s", "lower"),
        ("bench.pool_idle_s", "s", "lower"),
        ("config.resolve_s", "s", "lower"),
    ]
    + [(f"verify.check_s.{check}", "s", "lower") for check in CHECKS]
    + [
        ("verify.reference_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

_FINITE_CHECKS = ("check_finite_grad", "check_finite_values", "check_finite_buffers")
_RULE_MODULES = ("base", "muon", "soap", "mars", "prodigy", "sign", "sophia", "schedule_free")


class Recorder:
    """In-memory spans of one process; written out once, at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = ""

    def reset(self, run_id: str) -> None:
        self.spans, self.stack, self.run_id = [], [], run_id

    def wrap(self, fn, name: str, *, tag=None, units=None, post=None, run_id=None, flat: bool = False):
        """``fn`` recording one span per call.

        ``units(args, kwargs)`` gives the work asked for; ``post(result, span)``
        may replace the result or fill ``span[6]``; ``run_id(args, kwargs)``
        starts a new op; ``flat`` skips recording when the caller is already
        inside a span of the same name.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            if flat and stack and rec.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if run_id:
                rec.run_id = run_id(args, kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, rec.run_id, tag, units(args, kwargs) if units else 1]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            return post(result, span) if post else result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "run_id", "tag", "units"], "spans": self.spans}
        path.write_bytes(gzip.compress(json.dumps(doc).encode("utf-8"), compresslevel=1))


def _ns_flops(args, kwargs) -> int:
    """Multiply-add flops of Newton-Schulz, from shapes: 3 products of 2*m*m*n per iteration."""
    shape = getattr(args[0], "shape", (0, 0))
    small, large = sorted(shape[-2:]) if len(shape) >= 2 else (0, 0)
    iters = args[1] if len(args) > 1 else kwargs.get("iters", 5)
    return int(iters) * 3 * 2 * small * small * large


def _artifact_bytes(result, span):
    run_dir = Path(result)
    span[6] = sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())
    return result


def install(rec: Recorder, spans_dir: Path) -> None:
    """Wrap every traced boundary of the imported ``optlab`` package."""
    from optlab import _reference, bench, harness, runio, verify
    from optlab import rng as rng_mod
    from optlab.optimizers import engine
    import optlab.optimizers as opt_pkg

    def traced_problem(problem, span):
        problem.loss_and_grad = rec.wrap(problem.loss_and_grad, "problems.loss_and_grad")
        problem.gnb_grad = rec.wrap(problem.gnb_grad, "problems.gnb_grad")
        problem.full_loss = rec.wrap(problem.full_loss, "problems.full_loss")
        return problem

    def traced_engine(eng, span):
        eng.step = rec.wrap(eng.step, "optimizers.step", tag=eng.name)
        return eng

    rec.patch(harness, "run", "harness.run", run_id=lambda a, k: f"{a[0].get('optimizer.name')}/{a[0].get('run.seed')}")
    bench.run = harness.run
    rec.patch(harness, "setup_run", "harness.setup")
    rec.patch(harness, "build_problem", "problems.build", post=traced_problem)
    rec.patch(harness, "make_optimizer", "optimizers.make", post=traced_engine)
    rec.patch(harness, "clip_gradients", "harness.clip")
    rec.patch(harness, "lr_at", "schedules.lr_at")
    rec.patch(harness, "global_norm", "blocks.global_norm")
    rec.patch(engine, "global_norm", "blocks.global_norm")

    Rng = rng_mod.Rng
    rec.patch(Rng, "__init__", "rng.init")
    rec.patch(Rng, "normal", "rng.normal", units=lambda a, k: a[1] if len(a) > 1 else k["n"])
    rec.patch(Rng, "indices", "rng.indices", units=lambda a, k: a[2] if len(a) > 2 else k["size"])
    rec.patch(Rng, "uniform", "rng.uniform")

    soap = opt_pkg.soap
    rec.patch(soap, "qr_orthonormal", "linalg.qr")
    rec.patch(soap, "sym_eigenbasis", "linalg.eigh")
    for mod in (opt_pkg.muon, opt_pkg.mars):
        rec.patch(mod, "newton_schulz_orthogonalize", "muon.newton_schulz", units=_ns_flops)
    for mod_name in _RULE_MODULES:
        mod = getattr(opt_pkg, mod_name)
        for fn_name in _FINITE_CHECKS:
            if hasattr(mod, fn_name):
                rec.patch(mod, fn_name, "optimizers.finite_check")

    rec.patch(runio, "write_run_artifacts", "runio.write", post=_artifact_bytes)
    rec.patch(bench, "write_run_artifacts", "runio.write", post=_artifact_bytes)
    rec.patch(bench, "resolve", "config.resolve")
    rec.patch(bench, "run_suite", "bench.run_suite")
    cell = rec.wrap(bench._run_cell, "bench.cell")
    parent_pid = os.getpid()

    @functools.wraps(bench._run_cell)
    def run_cell(args):
        if os.getpid() == parent_pid:
            return cell(args)
        # A forked pool worker holds a copy of the recorder: start it afresh
        # for each cell and leave the spans where the parent collects them.
        cell_name = Path(args[1]).name
        rec.reset(cell_name)
        try:
            return cell(args)
        finally:
            rec.dump(spans_dir / f"{cell_name}.json.gz")

    bench._run_cell = run_cell

    for i, check in enumerate(verify.ALL_CHECKS):
        tag = check.__name__.removeprefix("check_")
        verify.ALL_CHECKS[i] = rec.wrap(check, "verify.check", tag=tag, run_id=lambda a, k, tag=tag: tag)
    for attr in dir(_reference):
        obj = getattr(_reference, attr)
        if isinstance(obj, type) and callable(getattr(obj, "step", None)):
            rec.patch(obj, "step", "verify.reference", flat=True)
        elif callable(obj) and getattr(obj, "__module__", None) == _reference.__name__:
            rec.patch(_reference, attr, "verify.reference", flat=True)


def load_shipped(spans_dir: Path, offset: int) -> list[list]:
    """Spans that pool workers wrote, one file per cell, to follow ``offset`` others."""
    spans = []
    for path in sorted(spans_dir.glob("*.json.gz")):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            base = offset + len(spans)
            for span in json.load(fh)["spans"]:
                if span[3] >= 0:
                    span[3] += base
                spans.append(span)
    return spans


def layer_metrics(spans: list[list], jobs: int, speed_factor: float) -> dict[str, float]:
    """Per-layer totals of one traced pass; 0 for layers the workload does not reach.

    Times are divided by ``speed_factor`` (the pass's median calibration
    factor), so they are at the reference speed like the end-to-end times.
    """
    scale = 1e9 * speed_factor
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    total: dict[tuple, float] = {}
    self_s: dict[tuple, float] = {}
    calls: dict[tuple, int] = {}
    units: dict[tuple, int] = {}
    durations: dict[tuple, list[float]] = {}
    for i, span in enumerate(spans):
        name, start, end, _, _, tag, work = span
        dur = end - start
        key = (name, tag)
        total[key] = total.get(key, 0) + dur / scale
        self_s[key] = self_s.get(key, 0) + (dur - child_ns[i]) / scale
        calls[key] = calls.get(key, 0) + 1
        units[key] = units.get(key, 0) + work
        durations.setdefault(key, []).append(dur / scale)

    def agg(table, name, tag=None):
        if tag is not None:
            return table.get((name, tag), 0)
        return sum(v for (n_, _), v in table.items() if n_ == name)

    def pct(name, tag, q):
        """Nearest-rank percentile of whole-span durations, in ms."""
        values = sorted(durations.get((name, tag), []))
        if not values:
            return 0.0
        return values[max(0, math.ceil(q * len(values)) - 1)] * 1e3

    cells = sorted(durations.get(("bench.cell", None), []))
    out = {
        "rng.normal_s": agg(self_s, "rng.normal"),
        "rng.normal_draws": agg(units, "rng.normal"),
        "rng.indices_s": agg(self_s, "rng.indices"),
        "rng.indices_draws": agg(units, "rng.indices"),
        "rng.uniform_s": agg(self_s, "rng.uniform"),
        "rng.uniform_calls": agg(calls, "rng.uniform"),
        "rng.streams": agg(calls, "rng.init"),
        "problems.build_s": agg(total, "problems.build"),
        "problems.loss_and_grad_s": agg(self_s, "problems.loss_and_grad"),
        "problems.loss_and_grad_calls": agg(calls, "problems.loss_and_grad"),
        "problems.gnb_grad_s": agg(self_s, "problems.gnb_grad"),
        "problems.full_loss_s": agg(self_s, "problems.full_loss"),
        "harness.clip_s": agg(self_s, "harness.clip"),
        "harness.loop_self_s": agg(self_s, "harness.run"),
        "blocks.global_norm_s": agg(self_s, "blocks.global_norm"),
        "blocks.global_norm_calls": agg(calls, "blocks.global_norm"),
        "schedules.lr_at_s": agg(self_s, "schedules.lr_at"),
    }
    for rule in RULES:
        out[f"optimizers.step_s.{rule}"] = agg(self_s, "optimizers.step", rule)
    for rule in RULES:
        out[f"optimizers.step_ms_p50.{rule}"] = pct("optimizers.step", rule, 0.5)
    run_suite_s = agg(total, "bench.run_suite")
    out.update(
        {
            "optimizers.step_ms_p99.soap": pct("optimizers.step", "soap", 0.99),
            "optimizers.finite_check_s": agg(self_s, "optimizers.finite_check"),
            "optimizers.finite_check_calls": agg(calls, "optimizers.finite_check"),
            "optimizers.make_s": agg(total, "optimizers.make"),
            "linalg.qr_s": agg(self_s, "linalg.qr"),
            "linalg.qr_calls": agg(calls, "linalg.qr"),
            "linalg.eigh_s": agg(self_s, "linalg.eigh"),
            "linalg.eigh_calls": agg(calls, "linalg.eigh"),
            "muon.newton_schulz_s": agg(self_s, "muon.newton_schulz"),
            "muon.newton_schulz_calls": agg(calls, "muon.newton_schulz"),
            "muon.newton_schulz_gflop_computed": agg(units, "muon.newton_schulz") / 1e9,
            "runio.write_s": agg(self_s, "runio.write"),
            "runio.bytes": agg(units, "runio.write"),
            "bench.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "bench.cell_s_max": cells[-1] if cells else 0.0,
            "bench.pool_idle_s": max(0.0, jobs * run_suite_s - sum(cells)) if run_suite_s else 0.0,
            "config.resolve_s": agg(total, "config.resolve"),
        }
    )
    for check in CHECKS:
        out[f"verify.check_s.{check}"] = agg(total, "verify.check", check)
    out["verify.reference_s"] = agg(total, "verify.reference")
    return out
