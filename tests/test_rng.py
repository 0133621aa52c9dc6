import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optlab
from optlab import rng as rng_module
from optlab import verify
from optlab.errors import ContractViolationError
from optlab.verify import _scalar_normal
from optlab.rng import (
    _JUMP,
    _MIN_JUMP_DRAWS,
    _NORMAL_BLOCK,
    Rng,
    _jump_starts,
    _lane_states,
    _xoshiro_lanes,
    _xoshiro_streams,
    fnv1a64,
    indices_streams,
    lane_seeds,
    normal_streams,
    stable_hash,
    uniform_streams,
)


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


def test_normal_is_one_stream_however_the_calls_split_it():
    whole = Rng(3, "split").normal(12_000)
    r = Rng(3, "split")
    parts = [r.normal(k) for k in (1, 4097, 0, 3, 4096, 2, 3801)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


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


def test_xoshiro_known_answer():
    # reference xoshiro256++ from the state (1, 2, 3, 4): rotl(1 + 4, 23) + 1
    r = Rng(0)
    r._s0, r._s1, r._s2, r._s3 = 1, 2, 3, 4
    assert r.next_u64() == 41943041
    lanes = [np.array([v], dtype=np.uint64) for v in (1, 2, 3, 4)]
    assert _xoshiro_lanes(lanes, 2).tolist() == [[41943041, r.next_u64()]]


def test_pinned_stream_values():
    r = Rng(2718, "proc")
    assert [r.next_u64() for _ in range(4)] == [
        9478550774082237562, 15578299738283751048, 17115191949025691456, 17561634284223801323,
    ]
    r = Rng(2718, "proc")
    assert [r.uniform() for _ in range(3)] == [0.513833267063706, 0.8445013209938803, 0.9278164146820034]
    r = Rng(2718, "proc")
    assert [r.below(13) for _ in range(6)] == [0, 8, 0, 6, 9, 0]


def test_lane_states_match_scalar_seeding():
    keys = [f"noise/{t}" for t in range(10)]
    state = _lane_states(2**64 + 5, keys)
    for lane, key in enumerate(keys):
        r = Rng(2**64 + 5, key)
        assert [int(s[lane]) for s in state] == [r._s0, r._s1, r._s2, r._s3]


def _random_keys(gen, count):
    return [f"{gen.choice(['noise', 'batch', 'k'])}/{int(gen.integers(0, 10**6))}" for _ in range(count)]


@pytest.mark.parametrize("n", [0, 1, 7, 64, 4096])
@pytest.mark.parametrize("count", [3, 9, 40])
def test_normal_streams_rows_equal_scalar_draws(n, count):
    gen = np.random.default_rng(n * 100 + count)
    for _ in range(1 if n == 4096 else 3):
        seed = int(gen.integers(0, 2**63)) * 2 + 1
        keys = _random_keys(gen, count)
        rows = normal_streams(seed, keys, n)
        assert rows.shape == (count, n) and rows.dtype == np.float64
        for key, row in zip(keys, rows):
            assert row.tobytes() == Rng(seed, key).normal(n).tobytes()


@pytest.mark.parametrize("bound", [1, 13, 1024, 1000, 3 * 2**61])
@pytest.mark.parametrize("size", [0, 1, 5, 64])
def test_indices_streams_rows_equal_scalar_draws(bound, size):
    # at 3 * 2**61 a quarter of the raw draws are rejected, so nearly every lane
    # of 64 draws takes the scalar fallback, and some lanes of 5 do not
    gen = np.random.default_rng(bound % 997 + size)
    for count in (4, 30):
        seed = int(gen.integers(0, 2**63))
        keys = _random_keys(gen, count)
        rows = indices_streams(seed, keys, bound, size)
        assert rows.shape == (count, size) and rows.dtype == np.int64
        for key, row in zip(keys, rows):
            assert np.array_equal(row, Rng(seed, key).indices(bound, size))


def test_streams_reject_bad_arguments():
    with pytest.raises(ValueError):
        normal_streams(1, ["a"] * 9, -1)
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        uniform_streams(1, ["a"] * 9, -1)
    with pytest.raises(ValueError):
        indices_streams(1, ["a"] * 9, 0, 3)
    for count in (1, 9):
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            indices_streams(1, ["a"] * count, 5, -1)
    with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
        Rng(1, "a").indices(5, -1)


def test_jump_matches_scalar_steps():
    # the state _JUMP steps on, from the table, is where _JUMP next_u64 calls lead
    for key in ("jump/a", "jump/b", 7):
        r = Rng(11, key)
        state = (r._s0, r._s1, r._s2, r._s3)
        starts = _jump_starts(state, 3)
        for lane in range(3):
            assert [int(s[lane]) for s in starts] == [r._s0, r._s1, r._s2, r._s3]
            for _ in range(_JUMP):
                r.next_u64()


def test_raw_draws_are_the_scalar_stream():
    block = _MIN_JUMP_DRAWS + 3 * _JUMP
    for n in (_MIN_JUMP_DRAWS - 1, _MIN_JUMP_DRAWS, _MIN_JUMP_DRAWS + 1, block - 1, block, block + 1):
        lanes, scalar = Rng(8, "raw"), Rng(8, "raw")
        lanes.next_u64(), scalar.next_u64()  # start the lanes off a fresh stream
        assert lanes._raw(n).tolist() == [scalar.next_u64() for _ in range(n)], n
        assert (lanes._s0, lanes._s1, lanes._s2, lanes._s3) == (scalar._s0, scalar._s1, scalar._s2, scalar._s3), n


@pytest.mark.parametrize(
    "n",
    [0, 1, _MIN_JUMP_DRAWS - 1, _MIN_JUMP_DRAWS, _MIN_JUMP_DRAWS + 1,
     2 * _NORMAL_BLOCK - 1, 2 * _NORMAL_BLOCK, 2 * _NORMAL_BLOCK + 1, 100_001],
)
def test_normal_is_the_scalar_stream_at_every_length(n):
    # 2 * _NORMAL_BLOCK normals are one block of raw draws: a whole number of lanes, no remainder
    lanes, scalar = Rng(21, "long"), Rng(21, "long")
    assert lanes.normal(n).tobytes() == _scalar_normal(scalar, n).tobytes()
    assert [lanes.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_normal_spare_carries_across_long_calls():
    sizes = (_MIN_JUMP_DRAWS + 1, 2 * _NORMAL_BLOCK + 3, 1, _MIN_JUMP_DRAWS)
    r = Rng(4, "spare")
    parts = [r.normal(k) for k in sizes]
    scalar = Rng(4, "spare")
    assert np.concatenate(parts).tobytes() == _scalar_normal(scalar, sum(sizes)).tobytes()
    assert r.next_u64() == scalar.next_u64()


class _BoundedRng(Rng):
    """An ``Rng`` that fails instead of drawing without end."""

    __slots__ = ("calls",)

    def next_u64(self):
        self.calls = getattr(self, "calls", 0) + 1
        assert self.calls <= 1000, "drew 1000 values for one result"
        return super().next_u64()


def test_huge_bounds_are_rejected():
    # a bound above 2**64 used to leave below's rejection limit at 0, so it drew forever
    with pytest.raises(ValueError, match="bound must be at most 2\\*\\*64"):
        _BoundedRng(1, "a").below(2**64 + 1)
    with pytest.raises(ValueError, match="bound must be at most"):
        indices_streams(1, ["a"] * 9, 2**64 + 1, 3)
    # int64 indices hold values below 2**63 only
    with pytest.raises(ValueError, match="bound must be at most 2\\*\\*63"):
        indices_streams(1, ["a"] * 9, 2**63 + 1, 3)
    with pytest.raises(ValueError, match="bound must be at most 2\\*\\*63"):
        Rng(1, "a").indices(2**63 + 1, 3)
    r, scalar = Rng(1, "a"), Rng(1, "a")
    assert r.below(2**64) == scalar.next_u64()
    assert indices_streams(1, ["a", "b"], 2**63, 3)[1].tolist() == Rng(1, "b").indices(2**63, 3).tolist()


def _scalar_raw(r, n):
    return np.fromiter((r.next_u64() for _ in range(n)), np.uint64, n)


_LONG_ROWS = [_MIN_JUMP_DRAWS - 1, _MIN_JUMP_DRAWS, _MIN_JUMP_DRAWS + 1,
              3 * _JUMP - 1, 3 * _JUMP + 1, 40 * _JUMP - 1, 40 * _JUMP + 1]


@pytest.mark.parametrize("n", _LONG_ROWS)
@pytest.mark.parametrize("count", [9, 40])
def test_many_keys_with_long_rows_are_the_scalar_streams(n, count):
    gen = np.random.default_rng(n * 7 + count)
    seed = int(gen.integers(0, 2**63))
    keys = _random_keys(gen, count)
    raw, end = _xoshiro_streams(_lane_states(seed, keys), n)
    normals = normal_streams(seed, keys, n)
    indices = indices_streams(seed, keys, 3 * 2**61, n)  # rejects a quarter of the draws
    for lane, key in enumerate(keys):
        r = Rng(seed, key)
        assert raw[lane].tobytes() == _scalar_raw(r, n).tobytes()
        # the end state continues the key's stream where n scalar draws leave it
        assert [int(s[lane]) for s in end] == [r._s0, r._s1, r._s2, r._s3]
        assert normals[lane].tobytes() == _scalar_normal(Rng(seed, key), n).tobytes()
        assert indices[lane].tolist() == Rng(seed, key).indices(3 * 2**61, n).tolist()


@pytest.mark.parametrize("lanes", [1, 2, 3, 5, 64, 65, 1000])
def test_jump_starts_at_any_lane_count_match_scalar_steps(lanes):
    rs = [Rng(12, "starts/a"), Rng(12, "starts/b")]
    state = [np.array([getattr(r, f"_s{w}") for r in rs], dtype=np.uint64) for w in range(4)]
    single = _jump_starts((rs[1]._s0, rs[1]._s1, rs[1]._s2, rs[1]._s3), lanes)
    starts = _jump_starts(state, lanes)
    for j in range(lanes):
        for k, r in enumerate(rs):
            assert [int(s[j * 2 + k]) for s in starts] == [r._s0, r._s1, r._s2, r._s3], (j, k)
        assert [int(s[j]) for s in single] == [rs[1]._s0, rs[1]._s1, rs[1]._s2, rs[1]._s3], j
        for r in rs:
            _scalar_raw(r, _JUMP)


def test_engine_handles_empty_draws():
    r = Rng(5, "engine")
    state = (r._s0, r._s1, r._s2, r._s3)
    raw, end = _xoshiro_streams(state, 0)
    assert raw.shape == (1, 0) and [int(s[0]) for s in end] == list(state)
    assert normal_streams(5, [], 3).shape == (0, 3)
    assert indices_streams(5, [], 7, 3).shape == (0, 3)
    assert uniform_streams(5, [], 3).shape == (0, 3)
    assert normal_streams(5, ["a", "b"], 0).shape == (2, 0)


def test_ns_band_draws_in_one_call_equal_the_per_key_matrices():
    # verify.check_newton_schulz_band draws its 50 matrices with this one call
    rows = normal_streams(7, [f"ns-band/{i}" for i in range(50)], 64 * 64)
    for i, row in enumerate(rows):
        assert row.reshape(64, 64).tobytes() == Rng(7, f"ns-band/{i}").normal_matrix(64, 64).tobytes(), i


def test_lane_states_hash_mixed_keys_as_the_scalar_seeding():
    keys = ["", 0, 17, -5, "a", "k" * 40, "bruit/é€😀", "noise/9"]
    state = _lane_states(2**63 + 11, keys)
    for lane, key in enumerate(keys):
        r = Rng(2**63 + 11, key)
        assert [int(s[lane]) for s in state] == [r._s0, r._s1, r._s2, r._s3], key
    assert [s.shape for s in _lane_states(1, [])] == [(0,)] * 4


def _count_lane_calls(monkeypatch):
    calls = []
    real = rng_module._xoshiro_streams

    def counted(state, n):
        calls.append(n)
        return real(state, n)

    monkeypatch.setattr(rng_module, "_xoshiro_streams", counted)
    return calls


_T = _MIN_JUMP_DRAWS


def test_the_rng_check_takes_the_lanes_of_both_stream_functions(monkeypatch):
    inside, reached = [], set()
    real_streams = rng_module._xoshiro_streams

    def counted(state, n):
        reached.update(inside)
        return real_streams(state, n)

    def entered(name, real):
        def wrapped(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        return wrapped

    monkeypatch.setattr(rng_module, "_xoshiro_streams", counted)
    for name in ("normal_streams", "indices_streams"):
        monkeypatch.setattr(verify, name, entered(name, getattr(verify, name)))
    assert verify.check_rng_streams().passed
    assert reached == {"normal_streams", "indices_streams"}


# (keys, values per key): raw draws one below, at and one above the threshold, with one key and with several
@pytest.mark.parametrize("count,size", [(1, _T - 1), (1, _T), (1, _T + 1), (3, (_T - 1) // 3), (7, _T // 7), (9, 50)])
@pytest.mark.parametrize("bound", [1000, 3 * 2**61])
def test_indices_streams_take_the_lanes_from_the_threshold_on(monkeypatch, count, size, bound):
    calls = _count_lane_calls(monkeypatch)
    keys = [f"batch/{t}" for t in range(count)]
    rows = indices_streams(77, keys, bound, size)
    assert bool(calls) == (count * size >= _MIN_JUMP_DRAWS)
    assert rows.shape == (count, size) and rows.dtype == np.int64
    for key, row in zip(keys, rows):
        assert row.tolist() == Rng(77, key).indices(bound, size).tolist()


# a normal row of n values takes 2 * ceil(n / 2) raw draws
@pytest.mark.parametrize("count,n", [(1, _T - 2), (1, _T - 1), (1, _T), (1, _T + 1), (4, 110), (4, 111), (4, 113)])
def test_normal_streams_take_the_lanes_from_the_threshold_on(monkeypatch, count, n):
    calls = _count_lane_calls(monkeypatch)
    keys = [f"noise/{t}" for t in range(count)]
    rows = normal_streams(78, keys, n)
    assert bool(calls) == (count * 2 * ((n + 1) // 2) >= _MIN_JUMP_DRAWS)
    assert rows.shape == (count, n) and rows.dtype == np.float64
    for key, row in zip(keys, rows):
        assert row.tobytes() == _scalar_normal(Rng(78, key), n).tobytes()


_LIBM_NAMES = ("log", "cos", "sin")
# every (function, candidate) pair of the chooser: numpy's per-element loop on a reversed view, and math per value
_LIBM_PATHS = [
    pytest.param(name, label, id=f"{name}-{label}") for name in _LIBM_NAMES for label in ("numpy-reversed", "math")
]


def _math_bytes(name, x):
    return np.array([getattr(math, name)(v) for v in x.tolist()], dtype=np.float64).tobytes()


def _candidate(name, label):
    if label == "math":
        return rng_module._per_value(getattr(math, name))
    return rng_module._reversed(getattr(np, name))


def _force_libm(monkeypatch, name, label):
    """Make ``_box_muller`` take candidate ``label`` for ``name``, and the chosen candidates for the other functions."""
    forced, chosen, x = _candidate(name, label), rng_module._libm, rng_module._probe(name)
    if label != "math" and forced(x).tobytes() != _math_bytes(name, x):
        pytest.skip(f"numpy's per-element loop of float64 {name} rounds unlike libm's on this build")
    monkeypatch.setattr(rng_module, "_libm", lambda f: forced if f == name else chosen(f))


@pytest.mark.parametrize("name,candidate", _LIBM_PATHS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 447, 100_001])
def test_each_libm_candidate_draws_the_scalar_normals(monkeypatch, name, candidate, n):
    _force_libm(monkeypatch, name, candidate)
    r, scalar = Rng(31, "trig"), Rng(31, "trig")
    # the second call takes the spare an odd n leaves, or draws a pair and keeps one
    drawn = np.concatenate([r.normal(n), r.normal(1)])
    assert drawn.tobytes() == _scalar_normal(scalar, n + 1).tobytes()
    assert [r.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


@pytest.mark.parametrize("name,candidate", _LIBM_PATHS)
def test_each_libm_candidate_draws_the_scalar_noise_block(monkeypatch, name, candidate):
    _force_libm(monkeypatch, name, candidate)
    keys = [f"noise/{t}" for t in range(256)]  # one quadratic noise block of dimension 64
    rows = normal_streams(17, keys, 64)
    for key, row in zip(keys, rows):
        assert row.tobytes() == _scalar_normal(Rng(17, key), 64).tobytes(), key


def test_libm_probe_is_deterministic_and_covers_the_edges():
    for name in _LIBM_NAMES:
        assert rng_module._probe(name).tobytes() == rng_module._probe(name).tobytes()
    # the Box-Muller angle of the smallest and largest draws, and of draws next to pi / 4 and pi
    edges = np.array([0, 1, 2**50, 4 * 2**50 - 1, 2**53 - 1], dtype=np.uint64) * 2.0**-53 * rng_module._TWO_PI
    assert np.isin(edges, rng_module._probe("cos")).all()
    assert rng_module._probe("sin").tobytes() == rng_module._probe("cos").tobytes()
    # u1 of the smallest and largest draws, and either side of 1/8, 1/4 and 1/2
    ulp = 2.0**-53
    u1 = np.array([ulp, 1.0, 0.125, 0.125 - ulp, 0.125 + ulp, 0.25, 0.25 + ulp, 0.5, 0.5 - ulp, 0.5 + ulp, 1.0 - ulp])
    assert np.isin(u1, rng_module._probe("log")).all()


@pytest.mark.parametrize("name", _LIBM_NAMES)
def test_libm_takes_numpys_loop_exactly_when_it_rounds_as_libm(name):
    x = rng_module._probe(name)
    libm = _math_bytes(name, x)
    loop, reference = _candidate(name, "numpy-reversed"), _candidate(name, "math")
    assert reference(x).tobytes() == libm
    # every function _reversed or _per_value returns shares its code object, so this names the candidate taken
    taken = (loop if loop(x).tobytes() == libm else reference).__code__
    assert rng_module._libm(name).__code__ is taken
    # a loop that rounds as libm's does everywhere is taken
    exact = rng_module._per_value(getattr(math, name))
    assert rng_module._choose(exact, reference, x) is exact


@pytest.mark.parametrize("name", _LIBM_NAMES)
def test_libm_chooser_rejects_a_candidate_one_ulp_off(name):
    x = rng_module._probe(name)
    libm = _candidate(name, "math")

    def one_ulp_off(i):
        def f(v):
            y = libm(v)
            y[i] = np.nextafter(y[i], np.inf)
            return y

        return f

    # the first probe value, the smallest draw (the first edge) and the last probe value
    for i in (0, rng_module._PROBE_DRAWS, len(x) - 1):
        assert rng_module._choose(one_ulp_off(i), libm, x) is libm, i


def test_chosen_libm_functions_hold_on_held_out_draws():
    # 2**16 Box-Muller inputs from a stream the probe never sees
    k = Rng(2026, "held-out/box-muller")._raw(2**17).reshape(-1, 2) >> np.uint64(11)
    inputs = {"log": (k[:, 0] + np.uint64(1)) * 2.0**-53, "cos": k[:, 1] * 2.0**-53 * rng_module._TWO_PI}
    inputs["sin"] = inputs["cos"]
    for name, x in inputs.items():
        assert len(x) == 2**16 and not np.isin(x, rng_module._probe(name)).any()
        assert rng_module._libm(name)(x).tobytes() == _math_bytes(name, x), name


# -- a sequence of seeds is a lane axis: entry [i, k] is Rng(seeds[i], keys[k])'s ----------------------------------


def _lane_seed_list(gen, count):
    """``count`` seeds: random, with one at or above 2**64 (masked as ``Rng`` masks it) and a repeated one."""
    seeds = [int(gen.integers(0, 2**63)) for _ in range(count)]
    seeds[0] += 2**64
    if count > 2:
        seeds[2] = seeds[1]
    return seeds


@pytest.mark.parametrize("n", [0, 1, 7, 32, 449, 4097])
@pytest.mark.parametrize("count", [1, 3, 40])
def test_normal_streams_of_lane_seeds_are_each_seed_and_keys_own_stream(n, count):
    # 4097 values take 2049 pairs, so the grid goes through _raw_streams three rows at a time
    gen = np.random.default_rng(n * 10 + count)
    seeds, keys = _lane_seed_list(gen, 3), _random_keys(gen, count)
    keys[-1] = keys[0]  # one key twice
    grid = normal_streams(seeds, keys, n)
    assert grid.shape == (3, count, n) and grid.dtype == np.float64
    for seed, rows in zip(seeds, grid):
        for key, row in zip(keys, rows):
            assert row.tobytes() == Rng(seed, key).normal(n).tobytes()
    assert normal_streams(tuple(seeds), keys, n).tobytes() == grid.tobytes()
    # an int seed is one lane's rows, without the lane axis
    assert normal_streams(seeds[1], keys, n).tobytes() == grid[1].tobytes()
    assert normal_streams([seeds[1]], keys, n).shape == (1, count, n)


@pytest.mark.parametrize("n", [0, 1, 7, _MIN_JUMP_DRAWS + 1])
@pytest.mark.parametrize("count", [1, 3, 40])
def test_uniform_streams_are_each_seed_and_keys_own_uniform_calls(n, count):
    # one row of 449 draws is the shortest a lone row takes the lanes at; 3 x 40 x 7 take them too
    gen = np.random.default_rng(n * 10 + count + 1)
    seeds, keys = _lane_seed_list(gen, 3), _random_keys(gen, count)
    keys[-1] = keys[0]  # one key twice
    grid = uniform_streams(seeds, keys, n)
    assert grid.shape == (3, count, n) and grid.dtype == np.float64
    for seed, rows in zip(seeds, grid):
        for key, row in zip(keys, rows):
            r = Rng(seed, key)
            assert row.tobytes() == np.array([r.uniform() for _ in range(n)], dtype=np.float64).tobytes()
    # one int seed, here at or above 2**64, is one lane's rows, without the lane axis
    assert seeds[0] >= 2**64
    assert uniform_streams(seeds[0], keys, n).tobytes() == grid[0].tobytes()
    assert uniform_streams(seeds[0] - 2**64, keys, n).shape == (count, n)
    assert uniform_streams([seeds[1]], keys, n).shape == (1, count, n)


def test_a_lane_seed_at_or_above_2_64_is_masked():
    keys = ["noise/1", "noise/1", "batch/3"]
    for n in (5, 600):  # the scalar rows and the lanes
        alone = normal_streams(9, keys, n)
        assert normal_streams([2**64 + 9, 9, 2**65 + 9], keys, n).tobytes() == np.stack([alone] * 3).tobytes()
        grid = indices_streams([2**64 + 9, 9, 2**65 + 9], keys, 1000, n)
        assert (grid == indices_streams(9, keys, 1000, n)).all()
    state = _lane_states([2**64 + 9, 4], ["a", "b"])
    for row, (seed, key) in enumerate((s, k) for s in (9, 4) for k in ("a", "b")):
        r = Rng(seed, key)
        assert [int(s[row]) for s in state] == [r._s0, r._s1, r._s2, r._s3]


@pytest.mark.parametrize("size", [0, 1, 5, 64, 300])
@pytest.mark.parametrize("bound", [13, 1000, 3 * 2**61])
def test_indices_streams_of_lane_seeds_are_each_seed_and_keys_own_stream(size, bound):
    gen = np.random.default_rng(size + bound % 101)
    seeds = _lane_seed_list(gen, 4)
    keys = [f"batch/{t % 7}" for t in range(10)]  # some keys twice
    grid = indices_streams(seeds, keys, bound, size)
    assert grid.shape == (4, 10, size) and grid.dtype == np.int64
    for seed, rows in zip(seeds, grid):
        for key, row in zip(keys, rows):
            assert row.tolist() == Rng(seed, key).indices(bound, size).tolist()


def test_a_rejected_row_is_recomputed_with_its_own_seed_and_key():
    # at 3 * 2**61 a quarter of the raw draws lie at or above the rejection limit
    bound, size, keys = 3 * 2**61, 8, ["batch/1", "batch/2"]
    seeds = [3, 2**64 + 3, 11, 16, 40, 41]
    limit = (1 << 64) - ((1 << 64) % bound)
    (raw,) = rng_module._raw_streams(seeds, keys, size, len(seeds) * len(keys))
    rejected = (raw >= np.uint64(limit)).any(axis=1).reshape(len(seeds), len(keys))
    assert rejected[2:].any() and not rejected.all()  # some row past the first seeds is recomputed, some is not
    grid = indices_streams(seeds, keys, bound, size)
    for seed, rows in zip(seeds, grid):
        for key, row in zip(keys, rows):
            assert row.tolist() == Rng(seed, key).indices(bound, size).tolist()
    assert grid[2:, 0].tolist() != [grid[0, 0].tolist()] * 4


def test_lane_states_are_each_seed_and_keys_state():
    keys = ["", 17, "noise/9", "noise/9"]
    seeds = [1, 2**63 + 11, 5, 6]
    state = _lane_states(seeds, keys)
    assert [s.shape for s in state] == [(16,)] * 4
    for i, seed in enumerate(seeds):
        for k, key in enumerate(keys):
            r = Rng(seed, key)
            assert [int(s[i * len(keys) + k]) for s in state] == [r._s0, r._s1, r._s2, r._s3], (seed, key)


@pytest.mark.parametrize(
    "seed", [True, False, np.True_, b"12", bytearray(b"12"), {1, 2}, frozenset({3}), "7", 1.0, None, [1, True]],
    ids=repr,
)
def test_every_stream_takes_only_what_the_seed_rule_takes(seed):
    # a bool used to draw as seed 1 or 0, bytes as one seed per byte and a set in set order
    message = "an integer or a non-empty sequence of integers, got " + re.escape(repr(seed))
    for draw in (lambda: Rng(seed, "a"), lambda: normal_streams(seed, ["a", "b"], 3),
                 lambda: uniform_streams(seed, ["a", "b"], 3), lambda: indices_streams(seed, ["a", "b"], 5, 3),
                 lambda: lane_seeds(seed)):
        with pytest.raises(ContractViolationError, match=message):
            draw()


def test_the_seed_rule_reads_integers_and_sequences_of_them():
    assert lane_seeds(5) == ((5,), 0)
    assert lane_seeds(np.int32(-4)) == ((2**64 - 4,), 0)
    assert lane_seeds([2**64 + 9, np.uint64(3)]) == ((9, 3), 2)
    assert lane_seeds((7,)) == ((7,), 1) and lane_seeds(range(2)) == ((0, 1), 2)
    assert all(type(s) is int for s in lane_seeds((np.int64(5), np.uint32(9)))[0])
    for draw in (lambda: normal_streams([], ["a"], 3), lambda: indices_streams((), ["a"], 5, 3)):
        with pytest.raises(ContractViolationError, match="needs at least one seed"):
            draw()
    # an Rng is one run's stream: a sequence of seeds, even of one, is a lane group
    for seed in ((7,), [1, 2]):
        with pytest.raises(ContractViolationError, match="one run's integer seed"):
            Rng(seed, "a")


def test_numpy_integer_seeds_draw_the_equal_python_seeds_streams():
    for numpy_seed, seed in ((np.int64(5), 5), (np.uint64(2**64 - 3), 2**64 - 3), (np.int32(-4), -4)):
        r, expected = Rng(numpy_seed, "a"), Rng(seed, "a")
        assert type(r.seed) is int and r.seed == expected.seed
        assert r.normal(7).tobytes() == expected.normal(7).tobytes()
        for n in (3, 600):  # the scalar rows and the lanes
            assert normal_streams(numpy_seed, ["a"], n).tobytes() == normal_streams(seed, ["a"], n).tobytes()
            pair = normal_streams([numpy_seed, np.int16(2)], ["a", "b"], n)
            assert pair.shape == (2, 2, n) and pair.tobytes() == normal_streams([seed, 2], ["a", "b"], n).tobytes()
            assert pair[1, 0].tobytes() == Rng(2, "a").normal(n).tobytes()
            assert (indices_streams(numpy_seed, ["a", "b"], 50, n) == indices_streams(seed, ["a", "b"], 50, n)).all()
            lanes = indices_streams([numpy_seed, np.int16(2)], ["a", "b"], 50, n)
            assert (lanes == indices_streams([seed, 2], ["a", "b"], 50, n)).all()
