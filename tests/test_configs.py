"""Every config file shipped in ``configs/`` passes its pre-flight without starting a run."""

from pathlib import Path

import pytest

from optlab import bench, harness
from optlab.config import load_config_file

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def test_the_readme_configs_are_shipped():
    assert {"quickstart.cfg", "signnoise-suite.cfg"} <= {path.name for path in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_passes_its_pre_flight(path, monkeypatch):
    def no_runs(*args):
        raise AssertionError("the pre-flight started a run")

    # a run's loop is harness._train; the planner's own first steps do not go through this name
    monkeypatch.setattr(harness, "_train", no_runs)
    flat = load_config_file(path)
    if any(key.startswith("suite.") for key in flat):
        suite = bench.parse_suite(flat, source=str(path))
        planned = bench._cell_config(suite)
        assert len(planned) == len(suite.optimizers) * len(suite.budgets) * suite.seeds
    else:
        cfg, _, _, engine, schedule = harness.setup_run(flat)
        assert (engine.name, schedule.total_steps) == (cfg["optimizer.name"], cfg["run.steps"])
