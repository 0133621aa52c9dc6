"""Machine-speed calibration, so that runs on a shared host can be compared.

On a shared host the speed of one core moves by more than half within
seconds, as neighbours come and go. The benchmark therefore times a fixed
kernel next to every measured interval and reports each interval at the
reference speed: ``reported = measured / factor ** s`` with ``factor =
kernel_time / CAL_REF_S`` averaged over the samples just before and just
after the interval, and ``s`` the sensitivity of that kind of work to the
host's speed state (``workloads.SENSITIVITY``). The kernel mixes the three kinds of work optlab does (pure-Python integer
arithmetic as in the RNG, small numpy element-wise updates as in the rules,
BLAS products as in the matrix methods) and calls nothing in optlab, so no
change to the program can move it. Raw times are kept in the run's details.
"""

from __future__ import annotations

import os
import statistics
import time

#: Kernel time, in seconds, at the reference speed (the fast state of the
#: 2-vCPU Xeon host the benchmark was defined on). Only the scale of the
#: reported times depends on it.
CAL_REF_S = 0.0035

_MASK = (1 << 64) - 1


def _kernel() -> None:
    import numpy as np

    x = 0x9E3779B97F4A7C15
    for _ in range(4000):
        x = (x ^ (x << 13)) & _MASK
        x ^= x >> 7
        x = (x ^ (x << 17)) & _MASK
    v = np.ones(64)
    w = np.full(64, 0.5)
    for _ in range(400):
        w = 0.9 * w + 0.1 * v
        v = v - 0.01 * w / (np.sqrt(w * w) + 1e-8)
    a = np.full((128, 128), 1.0 / 128.0)
    for _ in range(8):
        a = a @ a


def _kernel_time() -> float:
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Speed:
    """Calibration samples of one pass, as factors: kernel time / CAL_REF_S."""

    def __init__(self, every_cpu: bool = False):
        self.factors: list[float] = []
        self.seconds = 0.0
        self.every_cpu = every_cpu

    def sample(self) -> float:
        start = time.perf_counter()
        if self.every_cpu:
            allowed = os.sched_getaffinity(0)
            try:
                kernel_s = 0.0
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    kernel_s += _kernel_time() / len(allowed)
            finally:
                os.sched_setaffinity(0, allowed)
        else:
            kernel_s = _kernel_time()
        self.seconds += time.perf_counter() - start
        factor = kernel_s / CAL_REF_S
        self.factors.append(factor)
        return factor

    def factor(self) -> float:
        """Speed factor for an interval that ended just now: mean of the samples around it."""
        before = self.factors[-1]
        return (before + self.sample()) / 2.0
