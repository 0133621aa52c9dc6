"""Every script in ``demos/`` runs to completion from a clean working directory.

The demos write ``runs/`` relative to the working directory, so each runs in
its own temporary directory with ``src`` on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Demos too slow for the tier-1 suite, with the reason.
SLOW = {"wallclock_ranking.py": "times every rule on large blocks; takes about 17 s"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    if demo.name in SLOW:
        pytest.skip(SLOW[demo.name])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
