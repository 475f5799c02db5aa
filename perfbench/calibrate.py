"""Machine-speed reference for the benchmark's op times.

On a machine whose cores are shared with other tenants, the speed of one
core drifts by up to 2x over tens of seconds, for wall time and CPU time
alike, so raw op times from runs a few minutes apart disagree by more than
any regression worth catching.  The measured process therefore times this
fixed kernel next to the ops and scales each op time by ``REF_S / kernel
time``: an op time is reported as it would read on a core that runs the
kernel in ``REF_S`` seconds.  A change to the library moves the scaled
times; a change in the machine's speed moves the kernel too and cancels.

The kernel mixes what the workloads do: an interpreter loop of random bits,
float ``exp``, dict updates and ``Fraction`` arithmetic (the exact
sampler), and a random gather from an 8 MB array (the list kernels, whose
working set exceeds the core's own caches).  Measured against the three
workloads on a shared 2-vCPU machine, this mix tracked their slow phases
better than the loop alone, and the mean of a few kernel runs better than
their minimum.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

REPEATS = 3
_TABLE_WORDS = 1 << 20
_GATHER = 300_000


class Calibrator:
    # Kernel time on the reference core (one core of a 2-vCPU Intel Xeon
    # sandbox, Python 3.11, NumPy 2.4).
    REF_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(20250417)
        self.table = rng.integers(0, 1 << 30, size=_TABLE_WORDS, dtype=np.int64)
        self.index = rng.integers(0, _TABLE_WORDS, size=_GATHER)
        self.kernel()  # the first run pays page faults and cold caches

    def kernel(self) -> int:
        rnd = random.Random(20250417)
        counts = {}
        acc = 0
        for _ in range(2500):
            x = rnd.getrandbits(8)
            if rnd.random() < math.exp(-math.pi * (x - 127.3) ** 2 / 900.0):
                acc += x
            counts[x] = counts.get(x, 0) + 1
        f = Fraction(0)
        for i in range(1, 40):
            f += Fraction(i, i + 7) ** 2
        acc += int(self.table[self.index].sum() % 7)
        return acc + len(counts) + f.numerator % 7

    def seconds(self) -> float:
        """Mean time of REPEATS kernel runs, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.fmean(times)
