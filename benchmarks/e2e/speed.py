"""A speed probe, so host timings survive a box that changes speed.

The box these numbers come from drifts: the same pinned trace replayed
in 1.9 s, 2.2 s and 3.8 s within one half hour, with nothing else
running in the container, and the speed also moves *within* a 20 s
run.  No bound tighter than that drift means anything on raw seconds.

So every pass runs a small fixed *kernel* — interpreter-bound dict,
list, float, sort and ``json`` work, the mix the program is made of —
about every 100 ms, between operations, and keeps when each kernel run
started and ended.  From those it builds a **reference clock**: a
piecewise-linear map from ``perf_counter`` time to the seconds that
would have passed on a box where the kernel always takes
``REFERENCE_KERNEL_S``.  Between two kernel runs the map advances at
``REFERENCE_KERNEL_S / local kernel time`` (local = median over a
~0.7 s window, so one preempted kernel run does not bend it); during a
kernel run it stands still, which takes the probe's own cost out of
every interval that contains it.  Every host timing the benchmark
reports — set-up, wall, op latencies, span durations — is a difference
of two mapped timestamps.

Measured on this box, ten passes of one pinned trace: raw ``wall_s``
spread (interquartile range over median) 11.6 %, range 94 %; on the
reference clock 3.0 % and 9.7 %.  ``op_p50_ms`` on sim-wide-contended:
4.2 % with one factor per pass, 0.9 % with the local map.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from typing import Callable

#: Kernel time on this box in a quiet minute; a fixed convention, not a
#: measurement — both sides of any comparison use the same value.
REFERENCE_KERNEL_S = 0.0025

#: Minimum spacing of rate-limited samples.
INTERVAL_S = 0.1

#: Kernel runs on either side that vote on the local speed.
WINDOW = 3


def kernel() -> None:
    """The fixed work."""
    table: dict[int, float] = {}
    rows = []
    total = 0.0
    for i in range(12000):
        table[i & 1023] = i * 0.5
        total += table.get((i * 7) & 1023, 0.0)
        if i & 7 == 0:
            rows.append((i, total))
    rows.sort(key=lambda row: -row[1])
    json.dumps(rows[:200])


class SpeedMeter:
    """Samples the kernel through one pass; then maps raw time to reference time."""

    def __init__(self) -> None:
        kernel()  # warm the allocator and the code paths
        self.runs: list[tuple[float, float]] = []  # raw (start, end) per kernel run
        self.sample()

    def sample(self) -> None:
        """Run the kernel now."""
        start = time.perf_counter()
        kernel()
        self.runs.append((start, time.perf_counter()))

    def tick(self) -> None:
        """Run the kernel if the last run ended at least ``INTERVAL_S`` ago."""
        if time.perf_counter() - self.runs[-1][1] >= INTERVAL_S:
            self.sample()

    def kernel_s(self) -> float:
        """Mean kernel time so far."""
        return sum(end - start for start, end in self.runs) / len(self.runs)

    def reference_clock(self) -> Callable[[float], float]:
        """Close the pass; returns ``perf_counter`` time -> reference seconds."""
        self.sample()
        took = [end - start for start, end in self.runs]
        local = [
            statistics.median(took[max(0, j - WINDOW) : j + WINDOW + 1])
            for j in range(len(took))
        ]
        # Breakpoints: at xs[i] the reference clock reads ys[i] and then
        # advances at slopes[i] until the next breakpoint.
        xs: list[float] = []
        ys: list[float] = []
        slopes: list[float] = []
        reading = 0.0
        for j, (start, end) in enumerate(self.runs):
            xs.append(start)  # inside kernel run j: stands still
            ys.append(reading)
            slopes.append(0.0)
            nearby = local[j] if j + 1 == len(took) else (local[j] + local[j + 1]) / 2
            rate = REFERENCE_KERNEL_S / nearby
            xs.append(end)  # the gap after it (the last one runs on for ever)
            ys.append(reading)
            slopes.append(rate)
            if j + 1 < len(took):
                reading += (self.runs[j + 1][0] - end) * rate
        first_rate = REFERENCE_KERNEL_S / local[0]

        def to_reference(raw: float) -> float:
            if raw < xs[0]:
                return (raw - xs[0]) * first_rate
            i = bisect.bisect_right(xs, raw) - 1
            return ys[i] + (raw - xs[i]) * slopes[i]

        return to_reference
