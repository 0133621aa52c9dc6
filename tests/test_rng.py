import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optlab
from optlab.rng import Rng, fnv1a64, stable_hash


def test_same_seed_same_stream():
    a = Rng(123, "x")
    b = Rng(123, "x")
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    assert np.array_equal(Rng(123, "x").normal(33), Rng(123, "x").normal(33))


def test_distinct_keys_are_independent():
    assert Rng(123, "a").next_u64() != Rng(123, "b").next_u64()
    assert Rng(123, "a").next_u64() != Rng(124, "a").next_u64()


def test_normal_empty_and_counts():
    assert Rng(1, "n").normal(0).shape == (0,)
    assert Rng(1, "n").normal(7).shape == (7,)
    with pytest.raises(ValueError):
        Rng(1, "n").normal(-1)


def test_normal_moments():
    draws = Rng(99, "moments").normal(100_000)
    assert -0.02 <= float(draws.mean()) <= 0.02
    assert 0.97 <= float(draws.var()) <= 1.03


def test_below_is_in_range_and_deterministic():
    r = Rng(5, "ints")
    vals = [r.below(13) for _ in range(500)]
    assert all(0 <= v < 13 for v in vals)
    r2 = Rng(5, "ints")
    assert vals == [r2.below(13) for _ in range(500)]
    with pytest.raises(ValueError):
        r.below(0)


def test_streams_reproduce_across_processes():
    code = (
        "from optlab.rng import Rng\n"
        "r = Rng(2718, 'proc')\n"
        "print([r.next_u64() for _ in range(8)], r.normal(4).tobytes().hex())\n"
    )
    # the children import the same optlab as this process, installed or not
    src = str(Path(optlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out1 = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    out2 = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out1.stdout == out2.stdout and out1.stdout.strip()


def test_stable_hash_is_stable():
    assert stable_hash(1, "adamw", 200, 0) == stable_hash(1, "adamw", 200, 0)
    assert stable_hash(1, "adamw", 200, 0) != stable_hash(1, "adamw", 200, 1)
    assert fnv1a64(b"") == 0xCBF29CE484222325
