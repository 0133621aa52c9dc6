"""What importing optlab loads: each module is checked in a fresh interpreter, where nothing is loaded yet."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import optlab

#: Standard modules optlab uses only at first use: run-directory hashes, step-time statistics, the suite pool.
LAZY = ("hashlib", "statistics", "concurrent.futures", "multiprocessing")
POOL = ("concurrent.futures", "multiprocessing")


def _loaded_after(module: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` a fresh interpreter has loaded after ``import module``."""
    code = f"import sys, {module}; print(','.join(n for n in {names!r} if n in sys.modules))"
    src = str(Path(optlab.__file__).resolve().parents[1])  # the children import this process's optlab
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [name for name in proc.stdout.strip().split(",") if name]


def test_importing_optlab_loads_no_lazy_module():
    assert _loaded_after("optlab", LAZY) == []


@pytest.mark.parametrize("module", ["optlab.bench", "optlab.cli"])
def test_the_suite_runner_and_the_cli_load_the_pool_only_to_run_one(module):
    assert _loaded_after(module, POOL) == []


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclass creation writes one from inspect.signature at import
    modules = [importlib.import_module(info.name) for info in pkgutil.walk_packages(optlab.__path__, "optlab.")]
    classes = [obj for module in modules for obj in vars(module).values()
               if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == module.__name__]
    assert len(classes) > 10
    assert [cls.__qualname__ for cls in classes if cls.__doc__.startswith(cls.__name__ + "(")] == []
