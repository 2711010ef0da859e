"""Host-speed yardstick that the benchmark's timings are scaled by.

A shared host's CPU speed drifts.  On a 2-vCPU KVM guest, a fixed
pure-Python loop pinned to one vCPU had a CV of 12% across 40-second
windows and 18% across one-second windows, while on the other vCPU it
held within 3%.  That drift is wider than any regression bound could
be, and it outlasts a run, so longer runs do not average it out.  A
second fixed task timed right next to the first tracks it, though: two
different pure-Python tasks run alternately had a correlation of
0.98-0.99 over one-second windows, and the CV of their ratio was 2-3%
where each alone moved 11-15%.

So the benchmark times :func:`pace` next to every operation, on the same
CPU, and reports each timing as :func:`scaled` seconds: the time the
operation would have taken had the host run at the reference pace.  One
pace jitters by about 11% against the next, so an operation is scaled by
the median of the paces around it (:func:`local_paces`), a window of a
few seconds that still follows the drift.  :func:`pin` keeps a run's
processes on one CPU, so that a pace timed in the orchestrator describes
the CPU its child processes run on.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the yardstick loop (about 9 ms on the reference host).
ITERATIONS = 80_000
#: Median :func:`pace` on a quiet vCPU of a 2.1 GHz Intel Xeon KVM guest
#: under Python 3.11: a scaled timing is in seconds at this pace.
REFERENCE_S = 0.0092
#: Paces on each side of an operation that :func:`local_paces` takes the
#: median of.
WINDOW = 4


def pace() -> float:
    """Seconds one fixed pure-Python dict loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def local_paces(paces: list[float]) -> list[float]:
    """The pace to scale each of ``len(paces) - 1`` operations by, where
    ``paces[i]`` and ``paces[i + 1]`` were timed either side of operation
    ``i``."""
    return [
        statistics.median(paces[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(paces) - 1)
    ]


def scaled(seconds: float, pace_s: float) -> float:
    """``seconds`` measured at pace ``pace_s``, restated at the reference pace."""
    return seconds * REFERENCE_S / pace_s


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
