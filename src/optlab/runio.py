"""Run artifacts on disk: one directory per run with record.csv + summary.json."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError
from .harness import CSV_HEADER, RunRecord, csv_texts


def write_runs(records: list[RunRecord], run_dirs: list[str | Path]) -> list[Path]:
    """Write each record's run directory: its ``record.csv`` and ``summary.json``, as UTF-8 bytes.

    The records' CSV texts are formatted in one pass (``harness.csv_texts``),
    so a lane group's records share the text of the columns their lanes log
    alike; each file holds its own record's bytes.
    """
    written = []
    for record, run_dir, text in zip(records, run_dirs, csv_texts(records), strict=True):
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        summary = json.dumps(record.summary(), indent=2, sort_keys=True) + "\n"
        for name, content in (("record.csv", text), ("summary.json", summary)):
            with open(run_dir / name, "wb") as out:
                out.write(content.encode("utf-8"))
        written.append(run_dir)
    return written


def write_run_artifacts(record: RunRecord, run_dir: str | Path) -> Path:
    """Write one run's directory (``write_runs`` of a group of one)."""
    return write_runs([record], [run_dir])[0]


def read_record_csv(run_dir: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header fields and raw string rows of a run's record.csv.

    A file that cannot be read or is not UTF-8 text is rejected naming its
    path; a row of another length than the header, or whose ``step`` is not
    a whole number, is rejected with its line number.
    """
    path = Path(run_dir) / "record.csv"
    if not path.is_file():
        raise ConfigurationError(f"{path} not found; not a run directory?")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
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
