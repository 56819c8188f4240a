"""Host-speed reference: a fixed loop that calls no simulator code.

On a host whose cores are shared, the same code runs up to ~1.9x faster or
slower from one minute to the next, and the speed also changes within a
run.  Timing this loop next to the work measures the host's speed while
the work ran.  The benchmark divides each host time by that speed's
*slowdown* (loop time / ``REFERENCE_S``), so a change in the program
moves the figures and a change in the host's load mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

#: Iterations of the loop's pure-Python part and of its small-array numpy
#: part; each takes about half of the loop's time, roughly as the
#: simulator's own time is split between interpreter work and numpy calls.
LOOP = 25_000
ARRAY_LOOP = 1_250
ARRAY = np.arange(2048, dtype=np.float64)
#: Roughly the loop's median on a 2.1 GHz x86-64 vCPU under CPython 3.11.
#: Only a fixed scale: scaled figures are host time on a host that runs
#: the loop in this many seconds.
REFERENCE_S = 0.020


def reference_time() -> float:
    """Host seconds of one pass of the reference loop."""
    start = time.perf_counter()
    table, ring, acc = {}, [None] * 1024, 0.0
    for i in range(LOOP):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        ring[key] = (key, acc)
        acc += (i % 7) * 0.25
    values = ARRAY.copy()
    for i in range(ARRAY_LOOP):
        gaps = np.abs(values - (i % len(values)))
        values[int(np.argmin(gaps + values * 0.001))] += 1.0
    return time.perf_counter() - start
