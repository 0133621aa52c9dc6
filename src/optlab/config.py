"""Flat key-value run configuration.

Grammar (one setting per line, UTF-8):

    # full-line comments and blank lines are ignored
    section.key = value

Keys are lowercase dotted identifiers. Values are parsed as int, float,
bool (``true``/``false``), ``none``, or a bare string; there is no quoting
and no nesting. The same grammar is used for run configs, bench suites, and
the preset registry, so everything stays human-diffable.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from . import problems
from .errors import ConfigurationError
from .optimizers import OPTIMIZERS
from .optimizers.engine import wrong_kind

_KEY_RE = re.compile(r"^[a-z0-9_]+(?:[.-][a-z0-9_]+)*$")

#: Hyperparameter names accepted under ``optimizer.``: the union of the
#: engines' ``defaults`` tables. Which ones a rule takes is checked when its
#: engine is built, and by ``bench`` when it parses a suite.
OPTIMIZER_KEYS = tuple(dict.fromkeys(key for cls in OPTIMIZERS.values() for key in cls.defaults))

#: Each key's kind (text, true/false, a whole number, a number, or ``none``
#: for a number or none) is the kind ``resolve`` requires of its value. The
#: ``problem.*`` entries are ``problems.DEFAULTS``.
DEFAULTS = {
    **{f"problem.{key}": value for key, value in problems.DEFAULTS.items()},
    "optimizer.name": "adamw",
    "schedule.family": "cosine",
    "schedule.warmup_steps": 0,
    "schedule.final_lr_factor": None,
    "schedule.wsd_cooldown_fraction": 0.2,
    "run.steps": 100,
    "run.seed": 1,
    "run.clip": None,
    "run.log_every": 1,
    "run.coupled_wd_demo": False,
}

#: Every run-config key: the ``DEFAULTS`` keys, the preset tag, and one
#: ``optimizer.<key>`` per engine hyperparameter.
KNOWN_KEYS = frozenset([*DEFAULTS, "optimizer.preset", *(f"optimizer.{k}" for k in OPTIMIZER_KEYS)])


def parse_value(text: str):
    s = text.strip()
    low = s.lower()
    if low == "none":
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def value_to_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the flat grammar, reporting the offending line on failure."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigurationError(f"{source}:{lineno}: malformed key {key!r}")
        if key in out:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = parse_value(value)
    return out


def load_config_file(path: str | Path) -> dict:
    """Load a flat config file, or the resolved config embedded in a run summary."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON summary: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
            raise ConfigurationError(f"{path}: JSON file has no 'config' object")
        return dict(doc["config"])
    return parse_config_text(text, source=str(path))


def parse_overrides(pairs) -> dict:
    """Parse repeatable --set KEY=VALUE flags."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigurationError(f"--set: malformed key {key!r}")
        out[key] = parse_value(value)
    return out


def validate_keys(values: dict, known=KNOWN_KEYS, defaults=DEFAULTS, *, source: str = "config") -> None:
    """Reject keys outside ``known``, and values unlike the kind of their ``defaults`` entry."""
    unknown = sorted(k for k in values if k not in known)
    if unknown:
        raise ConfigurationError(f"{source}: unknown keys: {', '.join(unknown)}")
    for key, default in defaults.items():
        if key in values and (wanted := wrong_kind(values[key], default)):
            raise ConfigurationError(f"{source} key {key!r} needs {wanted}, got {values[key]!r}")


def resolve(*layers: dict | None) -> dict:
    """The one way to build a run config: defaults < preset < each layer in order.

    The preset is the one the merged ``optimizer.preset`` names for the merged
    ``optimizer.name``; the layers are, for the CLI, the config file and then
    the ``--set`` overrides. Unknown keys, values unlike the kind of their
    ``DEFAULTS`` entry and a ``run.log_every`` below 1 raise
    :class:`ConfigurationError`. Every other value is judged by the code that
    builds or steps from it: the problem (``problems.build_problem``), the
    engine and schedule (``harness.build_engine``), ``run.clip`` by
    ``harness.clip_gradients``, or a rule's step. ``bench.plan_cells`` runs
    all of them before a suite or sweep runs any cell. A numpy scalar is
    stored as the Python value it holds (``.item()``), so it writes, hashes
    and runs as that value does. Resolving a resolved config gives it back
    unchanged.
    """
    merged: dict = {}
    for layer in layers:
        merged.update(layer or {})
    merged = {key: value.item() if isinstance(value, np.generic) else value for key, value in merged.items()}
    cfg = dict(DEFAULTS)
    tag = merged.get("optimizer.preset")
    if tag:
        from .presets import get_preset  # presets parses its registry with this module

        cfg.update(get_preset(str(merged.get("optimizer.name", DEFAULTS["optimizer.name"])), str(tag)))
    cfg.update(merged)
    validate_keys(cfg)
    if cfg["run.log_every"] < 1:
        raise ConfigurationError(f"run.log_every must be >= 1, got {cfg['run.log_every']}")
    return cfg


def format_config(cfg: dict) -> str:
    """Canonical text form: sorted 'key = value' lines."""
    return "\n".join(f"{k} = {value_to_str(cfg[k])}" for k in sorted(cfg)) + "\n"


def config_hash(cfg: dict) -> str:
    import hashlib  # loaded on first use, so importing optlab does not load OpenSSL

    material = format_config({k: v for k, v in cfg.items() if k != "run.seed"})
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]
