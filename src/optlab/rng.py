"""Deterministic random streams: SplitMix64 seeding, xoshiro256++ generation.

Every source of randomness in the library is an :class:`Rng` addressed by a
``(seed, key)`` pair, e.g. ``Rng(seed, "batch/17")`` for the batch drawn at
step 17. The raw 64-bit integer stream is a pure integer recurrence and is
therefore byte-identical across platforms and processes; floating-point
outputs (uniform, normal) are deterministic given IEEE-754 doubles and the
platform's libm. Normal draws use the Box-Muller transform, chosen once so
the stream layout never changes.

Distinct keys yield independent streams without any shared mutable state,
which is what makes concurrent runs reproducible: each run owns its Rngs.
Because of that, many streams of one seed can also be drawn at once:
:func:`normal_streams` and :func:`indices_streams` run the same recurrence
with one numpy ``uint64`` lane per key, and row ``i`` of their result is bit
for bit what ``Rng(seed, keys[i])`` would have drawn.

One long stream is drawn in lanes too. The state update is linear over
GF(2), so a table of 256 states (built once per process) jumps a state
``_JUMP`` steps ahead; a long ``Rng.normal`` starts one lane every ``_JUMP``
steps, runs the lanes together, and draws the remainder with the scalar
loop. The values, and the state the call leaves, are the scalar stream's.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_MUL = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL[0]) & _MASK
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL[1]) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; used to turn stream keys and cell labels into integers."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


def stable_hash(*parts) -> int:
    """Platform-stable 63-bit hash of heterogeneous parts (for derived seeds)."""
    return fnv1a64("|".join(str(p) for p in parts).encode("utf-8")) >> 1


class Rng:
    """A single-owner xoshiro256++ stream.

    Args:
        seed: 64-bit base seed shared by all streams of one run.
        key: stream identifier; the convention is "purpose/detail", e.g.
            "init/w1" or "batch/203". The same (seed, key) pair always
            reproduces the same stream.
    """

    __slots__ = ("seed", "key", "_s0", "_s1", "_s2", "_s3", "_spare")

    def __init__(self, seed: int, key: str | int = 0):
        self.seed = seed & _MASK
        self.key = key
        sm = self.seed ^ fnv1a64(str(key).encode("utf-8"))
        sm, s0 = _splitmix64(sm)
        sm, s1 = _splitmix64(sm)
        sm, s2 = _splitmix64(sm)
        sm, s3 = _splitmix64(sm)
        if not (s0 | s1 | s2 | s3):  # all-zero state is a fixed point of xoshiro
            s0 = _GOLDEN
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
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
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def indices(self, bound: int, size: int) -> np.ndarray:
        return np.array([self.below(bound) for _ in range(size)], dtype=np.int64)

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal draws (Box-Muller), as a float64 vector."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        i = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            i = 1
        while i < n:  # a bounded block of pairs at a time keeps the temporaries small
            pairs = min((n - i + 1) // 2, _NORMAL_BLOCK)
            raw = self._raw(2 * pairs)
            values = _box_muller(raw[0::2], raw[1::2])
            m = min(2 * pairs, n - i)
            out[i : i + m] = values[:m]
            i += m
            if m < 2 * pairs:
                self._spare = float(values[-1])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)

    def _raw(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64``, leaving the state where ``n`` calls would.

        From ``_MIN_JUMP_DRAWS`` on, the first ``n // _JUMP`` blocks of ``_JUMP``
        outputs are drawn at once, one numpy lane per block, each lane started
        ``_JUMP`` steps after the one before; the last lane ends where the
        scalar loop would. The scalar loop draws the rest, and all of a
        shorter draw.
        """
        out = np.empty(n, dtype=np.uint64)
        lanes = n // _JUMP if n >= _MIN_JUMP_DRAWS else 0
        if lanes:
            state = _jump_starts((self._s0, self._s1, self._s2, self._s3), lanes)
            out[: lanes * _JUMP].reshape(lanes, _JUMP)[...] = _xoshiro_lanes(state, _JUMP)
            self._s0, self._s1, self._s2, self._s3 = (int(s[-1]) for s in state)
        done = lanes * _JUMP
        out[done:] = np.fromiter((self.next_u64() for _ in range(n - done)), np.uint64, n - done)
        return out


#: Most normal pairs ``Rng.normal`` converts at once.
_NORMAL_BLOCK = 8192
#: Below this many keys the scalar streams cost less than the lanes' per-draw numpy calls.
_MIN_LANES = 8
#: Steps between the starts of one stream's lanes in ``Rng._raw``.
_JUMP = 256
#: Below this many raw draws ``Rng._raw`` runs the scalar loop: the lanes' fixed cost is ``_JUMP`` numpy steps.
_MIN_JUMP_DRAWS = 16 * _JUMP
#: The shift counts and constants as numpy scalars, so no ufunc call has a Python int to convert.
_U = {c: np.uint64(c) for c in (1, 11, 17, 19, 23, 27, 30, 31, 41, 45, _GOLDEN, *_SPLITMIX_MUL)}
_TWO_PI = 2.0 * math.pi


def _box_muller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal pairs from raw draws ``a`` (for u1) and ``b`` (for u2), interleaved (cos, sin) on the last axis.

    The transcendental functions are ``math``'s (``np.log`` rounds differently
    on some inputs); the integer-to-double conversions, multiplications and
    ``sqrt`` are correctly rounded either way, so they run in numpy.
    """
    u1 = memoryview((((a >> _U[11]) + _U[1]) * 2.0**-53).ravel())  # u1 in (0, 1] keeps log() finite
    theta = memoryview(((b >> _U[11]) * 2.0**-53 * _TWO_PI).ravel())
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), np.float64, len(u1)))
    out = np.empty(2 * len(u1))
    out[0::2] = r * np.fromiter(map(math.cos, theta), np.float64, len(theta))
    out[1::2] = r * np.fromiter(map(math.sin, theta), np.float64, len(theta))
    return out.reshape(*a.shape[:-1], 2 * a.shape[-1])


def _lane_states(seed: int, keys) -> list[np.ndarray]:
    """The xoshiro256++ state of ``Rng(seed, key)`` for every key, one ``uint64`` lane per key."""
    seed &= _MASK
    sm = np.array([seed ^ fnv1a64(str(key).encode("utf-8")) for key in keys], dtype=np.uint64)
    state = []
    for _ in range(4):
        sm += _U[_GOLDEN]
        z = (sm ^ (sm >> _U[30])) * _U[_SPLITMIX_MUL[0]]
        z = (z ^ (z >> _U[27])) * _U[_SPLITMIX_MUL[1]]
        state.append(z ^ (z >> _U[31]))
    state[0][(state[0] | state[1] | state[2] | state[3]) == 0] = _U[_GOLDEN]
    return state


def _xoshiro_lanes(state: list[np.ndarray], n: int) -> np.ndarray:
    """The next ``n`` outputs of every lane of ``state`` (advanced in place), one row per lane."""
    s0, s1, s2, s3 = state
    out = np.empty((n, len(s0)), dtype=np.uint64)
    x = np.empty_like(s0)
    t = np.empty_like(s0)
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
def _jump_table() -> np.ndarray:
    """Row ``j`` is the state ``_JUMP`` steps on from the one whose only set bit is bit ``j % 64`` of word ``j // 64``.

    The xoshiro256++ state update is linear over GF(2), so the state ``_JUMP``
    steps on from any state is the XOR of the rows its set bits select.
    """
    state = [np.zeros(256, dtype=np.uint64) for _ in range(4)]
    for word, lane in enumerate(state):
        lane[64 * word : 64 * word + 64] = np.left_shift(_U[1], np.arange(64, dtype=np.uint64))
    for _ in range(_JUMP):  # one step at a time keeps the discarded outputs small
        _xoshiro_lanes(state, 1)
    table = np.stack(state, axis=1)
    table.setflags(write=False)  # every caller shares the cached table
    return table


def _jump_starts(state: tuple[int, int, int, int], lanes: int) -> list[np.ndarray]:
    """``lanes`` lane states: the first is ``state``, each next one ``_JUMP`` steps on from the one before."""
    table = _jump_table()
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    for i in range(1, lanes):
        bits = np.unpackbits(starts[i - 1].astype("<u8").view(np.uint8), bitorder="little").view(bool)
        starts[i] = np.bitwise_xor.reduce(table[bits], axis=0)
    return [starts[:, word].copy() for word in range(4)]


def normal_streams(seed: int, keys, n: int) -> np.ndarray:
    """Row ``i`` is ``Rng(seed, keys[i]).normal(n)``, bit for bit; shape ``(len(keys), n)``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    keys = list(keys)
    if len(keys) < _MIN_LANES:
        return np.array([Rng(seed, key).normal(n) for key in keys]).reshape(len(keys), n)
    raw = _xoshiro_lanes(_lane_states(seed, keys), 2 * ((n + 1) // 2))
    return np.ascontiguousarray(_box_muller(raw[:, 0::2], raw[:, 1::2])[:, :n])


def indices_streams(seed: int, keys, bound: int, size: int) -> np.ndarray:
    """Row ``i`` is ``Rng(seed, keys[i]).indices(bound, size)``, bit for bit; shape ``(len(keys), size)``.

    A lane that draws a value at or above ``below``'s rejection limit would
    have drawn again, so its row is recomputed with the scalar stream.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    keys = list(keys)
    if len(keys) < _MIN_LANES:
        return np.array([Rng(seed, key).indices(bound, size) for key in keys], dtype=np.int64).reshape(len(keys), size)
    raw = _xoshiro_lanes(_lane_states(seed, keys), size)
    rows = (raw % np.uint64(bound)).astype(np.int64)
    limit = (1 << 64) - ((1 << 64) % bound)
    if limit <= _MASK:
        for lane in np.flatnonzero((raw >= np.uint64(limit)).any(axis=1)):
            rows[lane] = Rng(seed, keys[lane]).indices(bound, size)
    return rows
