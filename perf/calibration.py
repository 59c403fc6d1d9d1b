"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of per
cent within minutes -- at times to half speed -- far more than the
regressions it must catch.  A fixed pure-Python kernel (an event heap of
small objects updating dicts) is timed before every timed simulation and
once at the end; its median time over the run, relative to
``REFERENCE_S``, is the run's host slowdown.  The kernel uses only the
standard library, so no change to the program can move it; only the host
can.

The simulator does not slow down one for one with the kernel: across
paired measurements on the baseline host, simulator time grew as about
the 0.6th power of kernel time (``ELASTICITY``; a least-squares fit of
log run time on log kernel time).  Dividing by ``slowdown **
ELASTICITY`` rather than by the slowdown itself keeps heavy contention
from being over-corrected.  On four sets of ten runs per workload, this
cut the interquartile spread of run medians from up to 34 % unscaled to
at most 14 %.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

#: Kernel time of the host the reported timings are scaled to (about the
#: kernel's time on the idle baseline host: a 2-vCPU x86-64 VM, Python 3.11).
REFERENCE_S = 0.240

KERNEL_OPS = 240_000

ELASTICITY = 0.6


class _Event:
    __slots__ = ("key", "time", "hits")

    def __init__(self, key: int, time: float) -> None:
        self.key = key
        self.time = time
        self.hits = 0


def kernel(ops: int = KERNEL_OPS) -> int:
    """A seeded discrete-event loop over 3000 live events."""
    rng = random.Random(1)
    heap = []
    tallies: dict[int, dict[int, float]] = {}
    for key in range(3_000):
        heapq.heappush(heap, (rng.random(), key, _Event(key, 0.0)))
    for _ in range(ops):
        time, key, event = heapq.heappop(heap)
        event.hits += 1
        bucket = tallies.setdefault(key % 512, {})
        slot = event.hits % 7
        bucket[slot] = bucket.get(slot, 0.0) + time
        heapq.heappush(heap, (time + rng.random(), key, _Event(key, time)))
    return len(tallies)


def probe() -> float:
    """How much slower than the reference host this one runs right now.

    The collector is off while the kernel runs: a full collection costs
    time in proportion to everything else alive in the process, which
    would make the kernel measure the heap instead of the host.
    """
    gc.collect()
    gc.disable()
    try:
        began = perf_counter()
        kernel()
        elapsed = perf_counter() - began
    finally:
        gc.enable()
    return elapsed / REFERENCE_S


def time_factor(probes: list[float]) -> float:
    """What to divide a run's host times by, given its probes."""
    return statistics.median(probes) ** ELASTICITY
