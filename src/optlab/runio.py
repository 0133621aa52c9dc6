"""Run artifacts on disk: one directory per run with record.csv + summary.json."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError
from .harness import CSV_HEADER, RunRecord


def write_run_artifacts(record: RunRecord, run_dir: str | Path) -> Path:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.csv").write_text(record.csv_text(), encoding="utf-8")
    summary = json.dumps(record.summary(), indent=2, sort_keys=True) + "\n"
    (run_dir / "summary.json").write_text(summary, encoding="utf-8")
    return run_dir


def read_record_csv(run_dir: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header fields and raw string rows of a run's record.csv.

    A row of another length than the header, or whose ``step`` is not a
    whole number, is rejected with its line number.
    """
    path = Path(run_dir) / "record.csv"
    if not path.is_file():
        raise ConfigurationError(f"{path} not found; not a run directory?")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"{path} does not carry the expected header")
    header = lines[0].split(",")
    step_idx = header.index("step")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line:
            row = line.split(",")
            if len(row) != len(header):
                raise ConfigurationError(f"{path} line {lineno}: {len(row)} fields, header has {len(header)}")
            step = row[step_idx]
            if not (step.isascii() and step.isdigit()):
                raise ConfigurationError(f"{path} line {lineno}: step must be a whole number, got {step!r}")
            rows.append(row)
    return header, rows
