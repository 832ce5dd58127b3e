"""Host-speed calibration for the end-to-end host times.

The benchmark runs on shared hosts whose speed shifts by up to 2x
within seconds, for reasons invisible to the guest (CPU time tracks
wall time through the shifts).  Such a shift moves every host time of
a run, so the benchmark measures the host's speed with a short fixed
probe between cases, at most every ``INTERVAL_S`` seconds, and reports
host times *scaled to a reference host speed*:

    scaled = raw * REFERENCE_PROBE_S / (median probe time near the case)

The probe is plain interpreter work that no change to the simulator
can speed up, so a faster simulator still shows as a smaller scaled
time.  On a 2-vCPU 2.1 GHz host, an inference request's time and the
probe's moved together through a 30% shift, their ratio staying within
about 3%.  The probes' own time is excluded from every figure.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List

#: Median probe time on the 2-vCPU 2.1 GHz host the benchmark was
#: defined on; scaled host times are in that host's units.
REFERENCE_PROBE_S = 0.00055
#: Minimum host seconds between two probes (about 1% of the time).
INTERVAL_S = 0.05
#: Probes within this many seconds of a timed interval estimate the
#: host speed during it ...
HALF_WINDOW_S = 0.25
#: ... and at least this many, taking the nearest when too few fall in.
MIN_PROBES = 5


def _probe_work() -> None:
    table = {}
    for i in range(5_000):
        key = i % 977
        table[key] = table.get(key, 0) + i


class HostSpeed:
    """Probes the host speed and scales raw host seconds by it."""

    def __init__(self) -> None:
        #: Midpoint and duration of every probe, in time order.
        self.times: List[float] = []
        self.samples: List[float] = []
        #: Host seconds spent probing, to subtract from enclosing timings.
        self.spent = 0.0
        self._next = 0.0

    def probe(self) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + INTERVAL_S

    def tick(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if perf_counter() >= self._next:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to scaled seconds for the interval [start, end]."""
        lo = bisect_left(self.times, start - HALF_WINDOW_S)
        hi = bisect_right(self.times, end + HALF_WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            if hi == len(self.times) or (
                    lo > 0 and start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_PROBE_S / statistics.median(self.samples[lo:hi])
