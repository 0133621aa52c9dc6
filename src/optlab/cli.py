"""Command-line front end: run, bench, verify, plotdata, presets.

Exit codes: 0 on success, 1 when verification fails, 2 for configuration or
usage errors. The default output root is ``./runs``, overridable with
``--out`` or the ``OPTLAB_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import parse_suite, run_suite, suite_hash
from .config import config_hash, load_config_file, parse_overrides, resolve, validate_keys
from .errors import ConfigurationError, ContractViolationError, UnsupportedEstimatorError
from .harness import run
from .presets import get_preset, list_presets
from .runio import read_record_csv, write_run_artifacts

_CONFIG_ERRORS = (ConfigurationError, ContractViolationError, UnsupportedEstimatorError)

#: plotdata kinds mapped to record.csv columns.
PLOT_KINDS = {
    "loss": "loss",
    "gradnorm": "grad_norm",
    "lr": "lr",
    "normgrowth": "param_norm",
    "d": "d_t",
}

#: The settings ``plotdata --set`` takes: EMA window 1 is the raw column.
PLOT_DEFAULTS = {"plot.window": 1}


def _out_root(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("OPTLAB_OUT")
    return Path(env) if env else Path("runs")


def _resolve_run_config(args) -> dict:
    file_cfg = load_config_file(args.config) if args.config else {}
    overrides = parse_overrides(args.set)
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    return resolve(file_cfg, overrides)


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    record = run(cfg)
    run_dir = _out_root(args) / f"run-{config_hash(cfg)}-s{cfg['run.seed']}"
    write_run_artifacts(record, run_dir)
    if record.diverged:
        print(f"DIVERGED at step {record.divergence_step}; artifacts in {run_dir}")
    else:
        print(f"final_loss = {record.final_loss:.6g} ({len(record.rows)} rows); artifacts in {run_dir}")
    return 0


def cmd_bench(args) -> int:
    if not args.config:
        raise ConfigurationError("bench requires --config SUITE_FILE")
    flat = load_config_file(args.config)
    flat.update(parse_overrides(args.set))
    if args.seed is not None:
        flat["suite.base_seed"] = args.seed
    suite = parse_suite(flat, source=str(args.config))
    out_dir = _out_root(args) / f"bench-{suite.name}-{suite_hash(suite)}"
    table = run_suite(suite, out_dir, jobs=max(1, args.jobs))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(table.csv_text(), encoding="utf-8")
    (out_dir / "report.json").write_text(
        json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(table.text_table())
    print(f"artifacts in {out_dir}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all_checks

    results = run_all_checks()
    width = max(len(r.name) for r in results)
    failed = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        seconds = "" if result.seconds is None else f"  {result.seconds:7.3f} s"
        detail = f"  {result.detail}" if result.detail else ""
        print(f"{status}  {result.name:<{width}}{seconds}{detail}")
        if not result.passed:
            failed.append(result.name)
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_plotdata(args) -> int:
    settings = {**PLOT_DEFAULTS, **parse_overrides(args.set)}
    validate_keys(settings, PLOT_DEFAULTS, PLOT_DEFAULTS, source="plotdata")
    window = settings["plot.window"]
    if window < 1:
        raise ConfigurationError("plot.window must be >= 1")
    column = PLOT_KINDS[args.kind]
    header, rows = read_record_csv(args.run_dir)
    idx = header.index(column)
    step_idx = header.index("step")
    pairs = [(r[step_idx], r[idx]) for r in rows if r[idx] != ""]
    out_path = Path(args.out) if args.out else Path(args.run_dir) / f"plot_{args.kind}.csv"
    lines = ["step,value"]
    if pairs:
        if window == 1:
            lines.extend(f"{s},{v}" for s, v in pairs)
        else:
            alpha = 2.0 / (window + 1.0)
            smooth = float(pairs[0][1])
            for s, v in pairs:
                smooth += alpha * (float(v) - smooth)
                lines.append(f"{s},{smooth!r}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not pairs:
        print(f"warning: column {column!r} is empty in {args.run_dir}; wrote empty output")
    print(f"wrote {out_path} ({len(pairs)} points)")
    return 0


def cmd_presets(args) -> int:
    entries = list_presets()
    if args.optimizer:
        entries = [(name, tag) for name, tag in entries if name == args.optimizer]
        if not entries:
            raise ConfigurationError(f"no presets for optimizer {args.optimizer!r}")
    for name, tag in entries:
        print(f"[{name} / {tag}]")
        preset = get_preset(name, tag)
        for key in sorted(preset):
            print(f"  {key} = {preset[key]}")
    return 0


def _add_common(parser, *, jobs=False):
    parser.add_argument("--config", help="flat key=value config file (or a run summary.json)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="output root (default ./runs or $OPTLAB_OUT)")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, help="parallel workers for suite cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optlab", description="desk-scale optimizer laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one training run")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)
    p_bench = sub.add_parser("bench", help="run a benchmark suite and rank optimizers")
    _add_common(p_bench, jobs=True)
    p_bench.set_defaults(func=cmd_bench)
    p_verify = sub.add_parser("verify", help="run the oracle/invariant suite")
    p_verify.set_defaults(func=cmd_verify)
    p_plot = sub.add_parser("plotdata", help="extract a plot-ready column from a run directory")
    p_plot.add_argument("run_dir", help="run directory holding record.csv")
    p_plot.add_argument("--kind", choices=sorted(PLOT_KINDS), required=True)
    p_plot.add_argument("--set", action="append", metavar="KEY=VALUE", help="e.g. plot.window=5")
    p_plot.add_argument("--out", help="output CSV path")
    p_plot.set_defaults(func=cmd_plotdata)
    p_presets = sub.add_parser("presets", help="list the preset registry")
    p_presets.add_argument("optimizer", nargs="?", help="only this optimizer's presets")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
