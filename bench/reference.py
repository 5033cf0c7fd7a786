"""Host-speed reference kernel for normalising timings on a shared machine.

On a small shared VM the host's speed drifts by about +-20% over tens of
seconds to minutes, and the drift has no relation to the program.
Medians over longer windows do not remove it (their spread stays near
0.2 from 15 s to 60 s windows).  So every timing is taken next to a run
of this kernel, which uses nothing from sievelab, and reported in
reference-speed seconds:

    normalised = measured * NOMINAL_S / kernel_time

where kernel_time is the mean of the kernel runs just before and just
after the timed region.  The kernel mixes what the workloads do: Philox
draws, small matrix-vector products from a Python loop, set updates and
one small matrix product.  The raw seconds are kept beside the
normalised ones in the detail record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one kernel run on an uncontended 2-vCPU Xeon at 2.1 GHz (Python 3.11, numpy 2.4)
NOMINAL_S = 0.0026
REPEATS = 5


def _kernel() -> float:
    g = np.random.Generator(np.random.Philox(key=7))
    a = g.standard_normal((300, 24))
    acc = 0.0
    seen: set[int] = set()
    for i in range(300):
        d = a @ a[i]
        acc += float(d.max())
        seen.update(np.flatnonzero(d > 5.0).tolist())
    return acc + float((a.T @ a).sum()) + len(seen)


def kernel_time() -> float:
    """Median seconds of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalise(seconds: float, before: float, after: float) -> float:
    return seconds * NOMINAL_S / (0.5 * (before + after))
