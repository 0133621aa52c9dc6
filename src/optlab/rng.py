"""Deterministic random streams: SplitMix64 seeding, xoshiro256++ generation.

Every source of randomness in the library is an :class:`Rng` addressed by a ``(seed, key)`` pair, e.g.
``Rng(seed, "batch/17")`` for the batch drawn at step 17. The raw 64-bit integer stream is a pure integer
recurrence and is therefore byte-identical across platforms and processes; floating-point outputs (uniform,
normal) are deterministic given IEEE-754 doubles and the platform's libm. Normal draws use the Box-Muller
transform, chosen once so the stream layout never changes. Its log, cos and sin give libm's bytes: for each, a probe
run once per process takes numpy's ufunc on a reversed view (numpy then runs its per-element loop, which calls libm)
if it gives ``math``'s bytes, else ``math`` one value at a time. So the numbers are the same either way, and Python
is called once per value only where numpy's loop rounds otherwise.

Distinct keys yield independent streams without any shared mutable state, which is what makes concurrent runs
reproducible: each run owns its Rngs.

Long streams, and many streams at once, go through one lane engine, :func:`_xoshiro_streams`. Each stream is
split into lanes of ``_JUMP`` steps; the state update is linear over GF(2), so all lane starts come from
log2(lanes) rounds of table jumps, and all lanes then run at once in numpy ``uint64`` arithmetic, bit for bit.
A single stream (``Rng._raw``) and batched rows of many keys (``_raw_streams``) take the engine from
``_MIN_JUMP_DRAWS`` raw draws in all on; shorter draws run the scalar loop, which costs less there.

One rule, ``lane_seeds``, reads every seed: an integer is one run, a sequence of them one lane per entry. The
batched draws (``normal_streams``, ``uniform_streams``, ``indices_streams``) take either, so the streams of several
runs (the lanes of a replicate group) come from one call; entry ``[i, k]`` is then ``Rng(seeds[i], keys[k])``'s.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import ContractViolationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_MUL = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_FNV_OFFSET, _FNV_PRIME = 0xCBF29CE484222325, 0x100000001B3


def _mix64(z):
    """SplitMix64's output function, on an int or on a ``uint64`` array."""
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL[0]) & _MASK
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL[1]) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; used to turn stream keys and cell labels into integers."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def stable_hash(*parts) -> int:
    """Platform-stable 63-bit hash of heterogeneous parts (for derived seeds)."""
    return fnv1a64("|".join(str(p) for p in parts).encode("utf-8")) >> 1


def lane_seeds(seed) -> tuple[tuple[int, ...], int]:
    """The one seed rule: ``seed``'s run seeds, each a Python int taken modulo ``2**64``, and its lane count.

    An integer (a Python or numpy one, not a bool) is one run, of 0 lanes. A non-empty sequence of them, not ``str``,
    ``bytes`` or ``bytearray``, has one lane per entry. Anything else raises ``ContractViolationError``.
    """
    stacked = isinstance(seed, Sequence) and not isinstance(seed, (str, bytes, bytearray))
    values = tuple(seed) if stacked else (seed,)
    try:
        if any(isinstance(value, bool) for value in values):
            raise TypeError("a bool is not a seed")
        seeds = tuple(operator.index(value) & _MASK for value in values)
    except TypeError:
        raise ContractViolationError(
            f"a problem seed is an integer or a non-empty sequence of integers, got {seed!r}"
        ) from None
    if not seeds:
        raise ContractViolationError("a lane-stacked problem needs at least one seed")
    return seeds, len(seeds) if stacked else 0


class Rng:
    """A single-owner xoshiro256++ stream.

    Args:
        seed: 64-bit base seed shared by all streams of one run, a Python or numpy integer (``lane_seeds``).
        key: stream identifier; the convention is "purpose/detail", e.g.
            "init/w1" or "batch/203". The same (seed, key) pair always
            reproduces the same stream.
    """

    __slots__ = ("seed", "key", "_s0", "_s1", "_s2", "_s3", "_spare")

    def __init__(self, seed: int, key: str | int = 0):
        seeds, lanes = lane_seeds(seed)
        if lanes:
            raise ContractViolationError(f"an Rng takes one run's integer seed, got {seed!r}")
        self.seed = seeds[0]
        self.key = key
        sm = self.seed ^ fnv1a64(str(key).encode("utf-8"))
        state = [_mix64((sm + k * _GOLDEN) & _MASK) for k in range(1, 5)]  # SplitMix64's first four outputs
        if not any(state):  # all-zero state is a fixed point of xoshiro
            state[0] = _GOLDEN
        self._s0, self._s1, self._s2, self._s3 = state
        self._spare: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s0 + s3) & _MASK
        out = ((((x << 23) | (x >> 41)) & _MASK) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound), via rejection."""
        _check_bound(bound, 64)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def indices(self, bound: int, size: int) -> np.ndarray:
        _check_bound(bound, 63, size)  # int64 values
        return np.array([self.below(bound) for _ in range(size)], dtype=np.int64)

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal draws (Box-Muller), as a float64 vector."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        i = 0
        if self._spare is not None and n > 0:
            out[0], self._spare, i = self._spare, None, 1
        while i < n:  # a bounded block of pairs at a time keeps the temporaries small
            pairs = min((n - i + 1) // 2, _NORMAL_BLOCK)
            values = _box_muller(*self._raw(2 * pairs).reshape(pairs, 2).T)  # u1 from even draws, u2 from odd
            out[i : i + 2 * pairs] = values[: n - i]
            i += 2 * pairs
        if i > n:
            self._spare = float(values[-1])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)

    def _raw(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64``, and the state they leave; in lanes from ``_MIN_JUMP_DRAWS`` on."""
        if n < _MIN_JUMP_DRAWS:
            return np.fromiter((self.next_u64() for _ in range(n)), np.uint64, n)
        raw, end = _xoshiro_streams((self._s0, self._s1, self._s2, self._s3), n)
        self._s0, self._s1, self._s2, self._s3 = (int(s[0]) for s in end)
        return raw[0]


#: Most normal pairs ``Rng.normal`` converts at once.
_NORMAL_BLOCK = 8192
#: Steps per lane of the engine: a stream of ``n`` draws runs as ``ceil(n / _JUMP)`` lanes.
_JUMP = 32
#: Below this many raw draws ``Rng._raw`` runs the scalar loop, which then costs less than ``_JUMP`` numpy steps.
_MIN_JUMP_DRAWS = 14 * _JUMP
#: The shift counts and constants as numpy scalars, so no ufunc call has a Python int to convert.
_U = {c: np.uint64(c) for c in (1, 11, 15, 17, 19, 23, 41, 45, _GOLDEN, _FNV_PRIME)}
_TWO_PI = 2.0 * math.pi
#: Nibble ``i`` of a state is the 4 bits of word ``i // 16`` at ``4 * (i % 16)``; its table rows start at ``16 * i``.
_NIBBLE_SHIFTS, _NIBBLE_ROWS = np.arange(0, 64, 4, dtype=np.uint64)[:, None], 16 * np.arange(64, dtype=np.intp)[:, None]
#: The table rows of the single-bit nibble values, nibble by nibble: row ``4 * i + b`` is nibble ``i``'s value ``2**b``.
_BIT_ROWS = (_NIBBLE_ROWS + (1 << np.arange(4, dtype=np.intp))).ravel()


def _check_bound(bound: int, bits: int, size: int = 0) -> None:
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound > 1 << bits:
        raise ValueError(f"bound must be at most 2**{bits}, got {bound}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")


def _box_muller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal pairs from raw draws ``a`` (for u1) and ``b`` (for u2), interleaved (cos, sin) on the last axis.

    The log, cos and sin are the vector functions ``_libm`` picks, each of which gives libm's bytes. The
    integer-to-double conversions, multiplications and ``sqrt`` are correctly rounded either way, so they run in numpy.
    """
    u1 = (((a >> _U[11]) + _U[1]) * 2.0**-53).ravel()  # u1 in (0, 1] keeps log() finite
    theta = ((b >> _U[11]) * 2.0**-53 * _TWO_PI).ravel()
    r = np.sqrt(-2.0 * _libm("log")(u1))
    out = np.empty((len(u1), 2))
    np.multiply(r, _libm("cos")(theta), out=out[:, 0])
    np.multiply(r, _libm("sin")(theta), out=out[:, 1])
    return out.reshape(*a.shape[:-1], 2 * a.shape[-1])


def _reversed(f):
    """numpy's ``f`` on a reversed view, in the input's order: on a negative stride numpy skips its SIMD kernel and
    runs its per-element loop, which calls libm's ``f``."""
    return lambda x: f(x[::-1])[::-1]


def _per_value(f):
    """``f`` from ``math`` over a float64 vector, one value at a time."""
    return lambda x: np.fromiter(map(f, memoryview(x)), np.float64, len(x))


#: Probe draws: fixed ones spread over the whole range, and this many either side of each multiple of ``2**50``.
_PROBE_DRAWS, _PROBE_EDGE = 4096, 256


def _probe(name: str) -> np.ndarray:
    """Box-Muller's inputs to ``name`` for 53-bit draws ``k``: ``u1 = (k + 1) * 2**-53`` to log, ``k * 2**-53 * 2 pi``
    to cos and sin.

    A Weyl sequence gives ``_PROBE_DRAWS`` values of ``k`` across the range; the edges, where an approximating kernel
    most likely rounds otherwise, are the ``k`` within ``_PROBE_EDGE`` of each ``m * 2**50`` (``m`` = 0 .. 8, so the
    smallest and the largest ``k`` too): the angle ``m pi / 4``, and ``u1`` next to 1/8, 1/4, 1/2 and 1.
    """
    spread = (np.arange(1, _PROBE_DRAWS + 1, dtype=np.uint64) * _U[_GOLDEN]) >> _U[11]
    offsets = np.arange(-_PROBE_EDGE, _PROBE_EDGE, dtype=np.int64)
    edges = (np.arange(9, dtype=np.int64)[:, None] << 50) + offsets
    k = np.concatenate([spread, edges[(edges >= 0) & (edges < 1 << 53)].astype(np.uint64)])
    return (k + _U[1]) * 2.0**-53 if name == "log" else k * 2.0**-53 * _TWO_PI


def _choose(loop, reference, x: np.ndarray):
    """``loop`` if it gives ``reference``'s bytes on every value of ``x``, else ``reference``."""
    return loop if loop(x).tobytes() == reference(x).tobytes() else reference


@functools.cache
def _libm(name: str):
    """libm's ``name`` (log, cos or sin) over a float64 vector, chosen once per process: numpy's per-element loop
    (``_reversed``) if it gives ``math``'s bytes on ``_probe(name)``, else ``math`` one value at a time."""
    return _choose(_reversed(getattr(np, name)), _per_value(getattr(math, name)), _probe(name))


def _lane_states(seed, keys) -> list[np.ndarray]:
    """Lane ``i * len(keys) + k`` is the xoshiro256++ state of ``Rng(seeds[i], keys[k])``, ``seeds`` as ``lane_seeds``
    reads ``seed``. ``fnv1a64`` runs once over all keys at once, a byte column at a time (a key's hash stops moving
    past its length); each seed is then XORed into every key's hash.
    """
    seeds, _ = lane_seeds(seed)
    data = [str(key).encode("utf-8") for key in keys]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    width = int(lengths.max(initial=0))
    columns = np.frombuffer(b"".join(d.ljust(width, b"\0") for d in data), np.uint8).reshape(len(data), width).T
    hashes = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    for j, column in enumerate(columns.astype(np.uint64)):
        np.copyto(hashes, (hashes ^ column) * _U[_FNV_PRIME], where=j < lengths)
    sm = (np.array(seeds, np.uint64)[:, None] ^ hashes).ravel()
    state = [_mix64(sm + np.uint64(k * _GOLDEN & _MASK)) for k in range(1, 5)]
    state[0][(state[0] | state[1] | state[2] | state[3]) == 0] = _U[_GOLDEN]
    return state


def _xoshiro_lanes(state: list[np.ndarray], n: int) -> np.ndarray:
    """The next ``n`` outputs of every lane of ``state`` (advanced in place), one row per lane."""
    s0, s1, s2, s3 = state
    out = np.empty((n, len(s0)), dtype=np.uint64)
    x, t = np.empty_like(s0), np.empty_like(s0)
    for row in out:
        np.add(s0, s3, out=x)
        np.bitwise_or(x << _U[23], x >> _U[41], out=x)
        np.add(x, s0, out=row)
        np.left_shift(s1, _U[17], out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.bitwise_or(s3 << _U[45], s3 >> _U[19], out=s3)
    return out.T


@functools.cache
def _jump_table(round_: int) -> np.ndarray:
    """Row ``16 * i + v`` is where the state holding only value ``v`` in nibble ``i`` is ``_JUMP * 2**round_`` steps on.

    The update is linear over GF(2), so any state lands on the XOR of the rows its 64 nibbles select. Only the 256
    single-bit rows (``v`` of 1, 2, 4 or 8) are moved: round 0 runs those states, each later round jumps them by the
    table before; every other row is the XOR of its bits' rows. Each table takes 32 KB, built once per process.
    """
    if round_:
        bits = _jump(_jump_table(round_ - 1)[_BIT_ROWS], _jump_table(round_ - 1))
    else:
        state = np.kron(np.eye(4, dtype=np.uint64), _U[1] << np.arange(64, dtype=np.uint64))
        _xoshiro_lanes(list(state), _JUMP)
        bits = state.T
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for b, bit in enumerate(bits.reshape(64, 4, 4).transpose(1, 0, 2)):  # values 2**b .. 2**(b+1) - 1 add bit b
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ bit[:, None]
    table = table.reshape(1024, 4)
    table.setflags(write=False)  # every caller shares the cached table
    return table


def _jump(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every row of ``states`` (shape ``(N, 4)``, one state per row) moved on by the jump ``table`` holds."""
    out = np.empty_like(states)
    for i in range(0, len(states), 128):  # the gathered rows take 2 KB per state
        nibbles = ((states[i : i + 128].T[:, None] >> _NIBBLE_SHIFTS) & _U[15]).reshape(64, -1).astype(np.intp)
        np.bitwise_xor.reduce(np.take(table, nibbles + _NIBBLE_ROWS, axis=0), axis=0, out=out[i : i + 128])
    return out


def _jump_starts(state, lanes: int) -> list[np.ndarray]:
    """``lanes`` states per stream of ``state`` (four words, each an int or an array over K streams), ``_JUMP`` apart.

    Lane ``j`` of stream ``k`` is entry ``j * K + k`` of each word; round ``r`` jumps lanes ``0 .. 2**r - 1``.
    """
    starts = np.empty((lanes, np.asarray(state[0]).size, 4), dtype=np.uint64)
    starts[0] = np.asarray(state, dtype=np.uint64).reshape(4, -1).T
    for r in range((lanes - 1).bit_length()):
        new = starts[1 << r : 2 << r]
        new[...] = _jump(starts[: len(new)].reshape(-1, 4), _jump_table(r)).reshape(new.shape)
    return [starts[..., word].ravel() for word in range(4)]


def _xoshiro_streams(state, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The next ``n`` outputs of each of the K streams of ``state`` (one row each), and the K states after them.

    Each stream runs as ``ceil(n / _JUMP)`` lanes, all in one ``_xoshiro_lanes`` block of two parts: the first is
    as long as the last lane's share, so the last lanes then hold the end states; the second finishes the others.
    """
    streams, segments = np.asarray(state[0]).size, max(1, -(-n // _JUMP))
    lanes, head = _jump_starts(state, segments), n - (segments - 1) * _JUMP
    out = np.empty((streams, segments, _JUMP), dtype=np.uint64)
    out[:, :, :head] = _xoshiro_lanes(lanes, head).reshape(segments, streams, head).transpose(1, 0, 2)
    if segments > 1:
        rest = _xoshiro_lanes([s[: len(s) - streams] for s in lanes], _JUMP - head)
        out[:, :-1, head:] = rest.reshape(segments - 1, streams, _JUMP - head).transpose(1, 0, 2)
    return out.reshape(streams, segments * _JUMP)[:, :n], [s[len(s) - streams :] for s in lanes]


def _raw_streams(seeds: tuple, keys: list, n: int, block: int):
    """Row ``i * len(keys) + k`` is ``Rng(seeds[i], keys[k])._raw(n)``, yielded in order: below ``_MIN_JUMP_DRAWS``
    draws in all, scalar rows in one block; else lanes from ``_lane_states``, ``block`` rows at a time."""
    count = len(seeds) * len(keys)
    if count * n < _MIN_JUMP_DRAWS:
        yield np.array([Rng(s, key)._raw(n) for s in seeds for key in keys], dtype=np.uint64).reshape(count, n)
        return
    state = _lane_states(seeds, keys)
    for i in range(0, count, block):
        yield _xoshiro_streams([word[i : i + block] for word in state], n)[0]


def normal_streams(seed, keys, n: int) -> np.ndarray:
    """Entry ``[i, k]`` is ``Rng(seeds[i], keys[k]).normal(n)``, bit for bit, for ``seeds, lanes = lane_seeds(seed)``;
    shape ``(lanes, len(keys), n)``, or ``(len(keys), n)`` for one integer seed. The raw draws come from
    ``_raw_streams``, a bounded block of rows at a time.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seeds, lanes = lane_seeds(seed)
    keys, pairs = list(keys), (n + 1) // 2
    out = np.empty((len(seeds), len(keys), n))
    rows, i = out.reshape(len(seeds) * len(keys), n), 0
    for raw in _raw_streams(seeds, keys, 2 * pairs, max(1, _NORMAL_BLOCK // max(1, pairs))):  # as in Rng.normal
        rows[i : i + len(raw)] = _box_muller(raw[:, 0::2], raw[:, 1::2])[:, :n]
        i += len(raw)
    return out if lanes else out[0]


def uniform_streams(seed, keys, n: int) -> np.ndarray:
    """Entry ``[i, k]`` is ``n`` calls of ``Rng(seeds[i], keys[k]).uniform()``, bit for bit, shaped as
    ``normal_streams``'. The raw draws come from ``_raw_streams``, every row in one block.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seeds, lanes = lane_seeds(seed)
    keys = list(keys)
    (raw,) = _raw_streams(seeds, keys, n, max(1, len(seeds) * len(keys)))
    out = ((raw >> _U[11]) * 2.0**-53).reshape(len(seeds), len(keys), n)
    return out if lanes else out[0]


def indices_streams(seed, keys, bound: int, size: int) -> np.ndarray:
    """Entry ``[i, k]`` is ``Rng(seeds[i], keys[k]).indices(bound, size)``, bit for bit, shaped as ``normal_streams``'.

    The raw draws come from ``_raw_streams``; a row holding a draw at or above ``below``'s rejection limit would
    have drawn again, so it is recomputed with the scalar stream of its own seed and key.
    """
    _check_bound(bound, 63, size)
    seeds, lanes = lane_seeds(seed)
    keys = list(keys)
    (raw,) = _raw_streams(seeds, keys, size, max(1, len(seeds) * len(keys)))  # every row in one block
    rows = (raw % np.uint64(bound)).astype(np.int64)
    limit = (1 << 64) - ((1 << 64) % bound)
    if limit <= _MASK:
        for row in np.flatnonzero((raw >= np.uint64(limit)).any(axis=1)):
            lane, k = divmod(int(row), len(keys))
            rows[row] = Rng(seeds[lane], keys[k]).indices(bound, size)
    out = rows.reshape(len(seeds), len(keys), size)
    return out if lanes else out[0]
