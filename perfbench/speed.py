"""The machine's speed, measured beside the ops.

The shared 2-vCPU virtual machine the benchmark was tuned on changes speed
by up to about 1.6x for spells of seconds to minutes, in CPU time as much as
in wall time, so the same op list can take 30% longer in one run than in the
next.  A fixed pure-Python kernel, timed every EVERY_S seconds between ops,
tracks that speed; each op's latency is scaled by REF_S over the median of
the kernel times nearest to it (WINDOW before and WINDOW after, about two
seconds), which reports it at one reference speed.
The kernel calls nothing in latfm, so a change to latfm cannot move it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference machine (the 2-vCPU VM above, Python
# 3.11): scaled times there read as its typical wall times.
REF_S = 0.0022
EVERY_S = 0.2
WINDOW = 5


def kernel():
    """Fraction arithmetic, tuples and a sort: the kind of work latfm does."""
    total = Fraction(0)
    rows = []
    for i in range(1, 400):
        total += Fraction(i, i * i + 7)
        rows.append((i, total.numerator % 1000003))
    rows.sort(key=lambda row: row[1])
    return total


def time_kernel() -> float:
    """Wall time of one kernel run, with the garbage collector held off so
    that the heap the program has built does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale factor from wall time to reference time for a batch of kernel
    samples taken over the same stretch of time."""
    return REF_S / statistics.median(samples)
