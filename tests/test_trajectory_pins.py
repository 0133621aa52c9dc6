"""Pinned trajectories: every rule's run must stay byte-identical across refactors.

Each case runs ``harness.run`` on a tiny config and compares the sha256 of its
``record.csv`` (without the ``step_time_ns`` wall-time column) and the repr of
its final loss against ``trajectory_pins.json``. A change that moves every
trajectory the same way still fails here, unlike run-against-run checks.

Matmul-heavy rules may round differently on another numpy or BLAS build, so
the fixture is keyed by both, and the test skips on a build it does not know.
The suite tier (``SUITE_CASES``, in the same keyed section) runs ``optlab
bench`` on small suite files and compares the sha256 of every file it writes,
``report.csv``, ``report.json`` and each run directory's two files, without
their wall times (``step_time_ns``, ``mean_step_time_ns``), so the lane-group
and one-cell paths of a suite are pinned as runs are.
The unkeyed tier (``UNKEYED_CASES``, fixture section ``EVERY_BUILD``) is read
on every build and never skips: the 13 rules that do not need the GNB
estimator on rosenbrock, which makes no draws and whose one vector block no
rule sends through BLAS. It still rests on libm ``pow``, through Python
``**`` in the Adam bias corrections and adopt's ``t**0.25``; on a libm whose
``pow`` rounds differently it fails, as it should. Regenerate the fixture
only on a commit whose numerics are the reference:

    PYTHONPATH=src python tests/test_trajectory_pins.py --regen
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from optlab.cli import main
from optlab.harness import run
from optlab.optimizers import OPTIMIZER_NAMES

FIXTURE = Path(__file__).with_name("trajectory_pins.json")

MLP = {
    "problem.kind": "mlp",
    "problem.in_dim": 6,
    "problem.hidden": 9,
    "problem.classes": 3,
    "problem.samples": 128,
    "problem.batch_size": 16,
    "run.steps": 60,
    "run.clip": 1.0,
    "run.seed": 5,
}
QUADRATIC = {
    "problem.kind": "quadratic",
    "problem.dim": 12,
    "problem.condition": 50.0,
    "problem.noise": 0.5,
    "problem.batch_size": 2,
    "run.steps": 60,
    "run.seed": 5,
}
#: Rules that need a categorical output (the GNB estimator) skip the quadratic.
NEEDS_GNB = ("sophia",)

CASES = {f"mlp/{name}": {**MLP, "optimizer.name": name} for name in OPTIMIZER_NAMES}
CASES.update(
    {f"quadratic/{name}": {**QUADRATIC, "optimizer.name": name} for name in OPTIMIZER_NAMES if name not in NEEDS_GNB}
)
# hybrid routing: the 1-D group's own lr and weight decay, and SOAP's size cap
# (w1 is 6x9, so precond_max_dim 8 sends it to AdamW)
CASES.update(
    {
        "mlp/muon+lr_1d": {**MLP, "optimizer.name": "muon", "optimizer.lr_1d": 3e-3},
        "mlp/mars-adamw+weight_decay_1d": {
            **MLP,
            "optimizer.name": "mars-adamw",
            "optimizer.weight_decay": 0.1,
            "optimizer.weight_decay_1d": 0.02,
        },
        "mlp/soap+precond_max_dim": {**MLP, "optimizer.name": "soap", "optimizer.precond_max_dim": 8},
    }
)

#: Suite files, pinned in the keyed section: element-wise (adamw, signum) and lane-by-lane (prodigy) lane groups on
#: the noisy quadratic, the hybrid matrix path (muon) and the GNB estimator (sophia) on the MLP, and groups of one
#: replicate, each run as one cell.
SUITE_CASES = {
    "suite/quadratic": """
        suite.optimizers = adamw, signum, prodigy
        suite.budgets = 12, 20
        suite.seeds = 3
        problem.kind = quadratic
        problem.dim = 12
        problem.condition = 50.0
        problem.noise = 0.5
        problem.batch_size = 2
        schedule.warmup_steps = 3
        run.clip = 1.0
        run.log_every = 3
        signum.optimizer.lr = 0.01
    """,
    "suite/mlp": """
        suite.optimizers = muon, sophia
        suite.budgets = 16
        suite.seeds = 2
        suite.base_seed = 5
        problem.kind = mlp
        problem.in_dim = 6
        problem.hidden = 9
        problem.classes = 3
        problem.samples = 64
        problem.batch_size = 8
        run.clip = 1.0
        sophia.optimizer.estimator_freq = 3
    """,
    "suite/one-seed": """
        suite.optimizers = adamw, lion
        suite.budgets = 10, 6
        suite.seeds = 1
        problem.kind = quadratic
        problem.dim = 8
        problem.noise = 1.0
        schedule.family = wsd
    """,
}

#: Fixture section of the unkeyed tier; build keys all start with "numpy".
EVERY_BUILD = "every build"
ROSENBROCK = {"problem.kind": "rosenbrock", "problem.dim": 6, "run.steps": 60, "run.clip": 1.0, "run.seed": 5}
UNKEYED_CASES = {
    f"rosenbrock/{name}": {**ROSENBROCK, "optimizer.name": name} for name in OPTIMIZER_NAMES if name not in NEEDS_GNB
}


def env_key() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__} | {blas.get('name', '?')} {blas.get('version', '?')}"


def trajectory_pin(config: dict) -> list[str]:
    """[sha256 of record.csv minus step_time_ns, repr of the final loss]."""
    record = run(config)
    lines = [line.rsplit(",", 1)[0] for line in record.csv_text().splitlines()]
    return [hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(), repr(record.final_loss)]


def suite_pin(text: str) -> dict[str, str]:
    """The sha256 of each file ``optlab bench`` writes for suite file ``text``, by its path in the suite's
    directory, without ``record.csv``'s ``step_time_ns`` column and ``summary.json``'s ``mean_step_time_ns`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "suite.cfg").write_text(textwrap.dedent(text), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bench", "--config", str(root / "suite.cfg"), "--out", str(root / "out")]) == 0
        (out,) = (root / "out").iterdir()
        pins = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            lines = path.read_text(encoding="utf-8").split("\n")
            if path.name == "record.csv":
                lines = [line.rsplit(",", 1)[0] for line in lines]
            elif path.name == "summary.json":
                lines = [line for line in lines if '"mean_step_time_ns"' not in line]
            pins[path.relative_to(out).as_posix()] = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return pins


def _load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.is_file() else {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_pin(case):
    pins = _load().get(env_key())
    if pins is None:
        pytest.skip(f"no pinned trajectories for {env_key()!r}; see the module docstring to add them")
    assert case in pins, f"{case} has no pin; regenerate the fixture on a reference commit"
    assert trajectory_pin(CASES[case]) == pins[case]


@pytest.mark.parametrize("case", sorted(SUITE_CASES))
def test_suite_files_match_pin(case):
    pins = _load().get(env_key())
    if pins is None:
        pytest.skip(f"no pinned suites for {env_key()!r}; see the module docstring to add them")
    assert case in pins, f"{case} has no pin; regenerate the fixture on a reference commit"
    assert suite_pin(SUITE_CASES[case]) == pins[case]


@pytest.mark.parametrize("case", sorted(UNKEYED_CASES))
def test_unkeyed_trajectory_matches_pin(case):
    assert trajectory_pin(UNKEYED_CASES[case]) == _load()[EVERY_BUILD][case]


def regen() -> None:
    doc = _load()
    doc[env_key()] = {case: trajectory_pin(cfg) for case, cfg in sorted(CASES.items())}
    doc[env_key()].update({case: suite_pin(text) for case, text in sorted(SUITE_CASES.items())})
    doc[EVERY_BUILD] = {case: trajectory_pin(cfg) for case, cfg in sorted(UNKEYED_CASES.items())}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(CASES)} trajectories and {len(SUITE_CASES)} suites for {env_key()!r} and "
          f"{len(UNKEYED_CASES)} trajectories for every build in {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_trajectory_pins.py --regen")
    regen()
