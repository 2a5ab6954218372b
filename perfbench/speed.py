"""The machine's speed, measured with a fixed reference kernel.

The host the benchmark runs on is shared, and its speed drifts by tens of
percent over seconds and minutes. A time divided by the kernel's time taken
next to it holds still while the machine drifts, and moves when the program
changes. The kernel only ever runs while the program does not: between two
ops, or between two set-up spawns.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Reference-kernel runs in one speed sample; the sample is their median.
KERNEL_RUNS = 9


# Fixed inputs of the reference kernel's array part: 20 relay subsets of 6
# relays, with gains, noises and a quantization level, like one margin pass.
_KERNEL_ROWS = [[i for i in range(6) if mask >> i & 1] for mask in range(1, 21)]
_KERNEL_GAIN = np.linspace(0.1, 10.0, 6)
_KERNEL_NOISE = np.linspace(0.5, 2.0, 6)
_KERNEL_Q = np.full(6, 0.3)
_KERNEL_COV = np.eye(4) * 3.0 + 0.5


def reference_kernel() -> float:
    """Seconds taken by a fixed ~0.7 ms of work in the program's three
    kinds: a recursive set-partition generator in pure Python, small-array
    numpy expressions like a feasibility margin pass, and small Cholesky
    factorizations."""
    t0 = time.perf_counter()

    def grow(i: int, n: int, blocks: int):
        if i == n:
            yield blocks
            return
        for lab in range(blocks + 1):
            yield from grow(i + 1, n, max(blocks, lab + 1))

    sum(grow(1, 6, 1))
    for row in _KERNEL_ROWS:
        q, noise = _KERNEL_Q[row], _KERNEL_NOISE[row]
        float(np.sum(np.log1p(noise / q)))
        math.log1p(2.0 * float(np.sum(_KERNEL_GAIN[row] / (noise + q))))
    for _ in range(10):
        float(np.log1p(np.linalg.cholesky(_KERNEL_COV)).sum())
    return time.perf_counter() - t0


def speed_sample() -> float:
    """Seconds of one reference-kernel run: the median of KERNEL_RUNS runs,
    so that one interrupted run does not count."""
    return statistics.median(reference_kernel() for _ in range(KERNEL_RUNS))
