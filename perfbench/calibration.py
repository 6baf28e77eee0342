"""Host speed, measured next to every timed job.

The benchmark runs on shared hosts whose speed drifts with other load, in
phases lasting seconds to minutes.  On the 2-core host the bounds were set
on, 200 back-to-back runs of ``calibrate`` took 16 to 74 ms of wall time
(median 29 ms) and 16 to 34 ms of CPU time (median 28 ms): other load both
takes the processor away and slows the work done while the process holds
it.  gpw is interpreter-bound Python (Fractions, tuples, dicts), and so is
``calibrate``; timing it just before and just after a job and dividing the
job's time by it cancels most of the drift.  Wall time is divided by the
loop's wall time, and CPU time by the loop's CPU time, so each is measured
against host speed of its own kind.

Reported times are ``ratio * REFERENCE_S``.  ``REFERENCE_S`` is a fixed
scale, set near the fastest time of the loop on that host (16 ms), so a
reported second is about a second of that host when lightly loaded.

``calibrate`` uses only the standard library, so no change to gpw can
change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.02


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds taken by a fixed loop of Fraction, tuple and
    dict work."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc: dict[tuple[int, int], Fraction] = {}
    x = Fraction(1, 3)
    for i in range(5000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + x * (i % 7)
    return time.perf_counter() - wall, time.process_time() - cpu
