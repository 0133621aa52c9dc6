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
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
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
        two_pi = 2.0 * math.pi
        while i < n:
            # u1 in (0, 1] keeps log() finite
            u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
            u2 = (self.next_u64() >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(two_pi * u2)
            i += 1
            if i < n:
                out[i] = r * math.sin(two_pi * u2)
                i += 1
            else:
                self._spare = r * math.sin(two_pi * u2)
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)
