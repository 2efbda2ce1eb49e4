"""Host-speed calibration kernel.

The host's speed changes all the time. On the 2-vCPU x86_64 host the
benchmark was defined on, one 30 ms pass of this kernel took 25-55 ms from
one second to the next, the two vCPUs differed by up to 1.5x at the same
moment, and slow episodes lasted from seconds to minutes. No CPU time was
stolen (process CPU time equals wall time), so the work itself runs slower.

Every sample is therefore pinned to fixed CPUs and bracketed by this kernel
on those CPUs, run just before and just after it. A timing is divided by
the mean of the two and multiplied by ``CALIB_REF_S``. Over ten runs of
each workload the spread of the run medians (interquartile range over
median) fell from 22-38% raw to 4-14% normalised. The bracket cannot
follow swings shorter than a sample; those are left to the medians over
samples and runs.

The kernel is plain Python over a small working set (a 1,024-entry dict,
short lists, small ints) and imports nothing from ``repro``. It runs in the
runner process, which holds no workload objects, with the garbage
collector paused.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Sequence

#: Kernel time, in seconds, that normalised timings are expressed against:
#: the median kernel time on the 2-vCPU x86_64 host the benchmark was
#: defined on. Frozen — changing it rescales every reported time.
CALIB_REF_S = 0.14

#: Iterations of the kernel loop; about CALIB_REF_S seconds on that host.
CALIB_ITERATIONS = 400_000

#: Passes per CPU and calibration. The host's speed changes within a
#: second, so one short pass is a noisy estimate of it.
CALIB_PASSES = 4


def _kernel(iterations: int) -> int:
    table: dict = {}
    window = []
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + (i & 7)
        window.append((key, i))
        if len(window) > 16:
            acc ^= hash(tuple(window)) & 0xFFFF
            window.clear()
    return acc + sum(table.values())


def normalise(raw_s: float, calibration_s: float) -> float:
    """``raw_s`` expressed at the reference host speed."""
    return raw_s * CALIB_REF_S / calibration_s


def measure(cpus: Sequence[int]) -> float:
    """Mean seconds of one kernel pass, over CALIB_PASSES passes pinned to
    each CPU in ``cpus``."""
    allowed = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for _ in range(CALIB_PASSES):
                started = time.perf_counter()
                _kernel(CALIB_ITERATIONS)
                times.append(time.perf_counter() - started)
        return sum(times) / len(times)
    finally:
        os.sched_setaffinity(0, allowed)
        if enabled:
            gc.enable()
