"""A clock that runs at the host's momentary speed.

Shared hosts change speed by 10-30 % from one second to the next (measured
while this benchmark was written: 1-s medians of a fixed exact-arithmetic loop
ranged from 11.3 to 18.6 ms on one 2-core host, and 6-s means from 13.3 to
17.9 ms).  Op streams of a few seconds inherit that spread.  This clock
removes it: a SIGALRM timer runs a fixed reference computation every
INTERVAL_S of wall time and times it; between two probes the clock advances
by the elapsed wall time times REFERENCE_PROBE_S / (median of the last five
probe times).  Time spent in probes is left out of both clocks.  The readings
are seconds at the speed at which one probe takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from fractions import Fraction

INTERVAL_S = 0.02
# The probe's typical time on the host the benchmark was defined on (2-core
# x86-64 VM, Python 3.11.7), so that readings there resemble wall seconds.
REFERENCE_PROBE_S = 3.0e-4


def reference_work() -> Fraction:
    """Fixed work in the style of kmx: a product of 10x10 integer matrices
    held as tuples, and a sum of Fractions."""
    m = tuple(tuple((3 * r + c) % 7 - 3 for c in range(10)) for r in range(10))
    p = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*m)) for row in m)
    total = Fraction(p[0][0])
    for i in range(1, 40):
        total += Fraction(i, 7 + i)
    return total


class HostClock:
    def __init__(self):
        self.probes: deque[float] = deque(maxlen=5)
        self.all_probes: list[float] = []
        self.probe_total = 0.0
        # (normalized time, wall time, speed) at the end of the last probe,
        # replaced as one tuple so that a reader never sees half an update
        self.state = (0.0, time.perf_counter(), 1.0)

    def start(self) -> None:
        self._tick(None, None)  # the first speed reading
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        norm, last, speed = self.state
        reference_work()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.all_probes.append(t1 - t0)
        self.probe_total += t1 - t0
        self.state = (norm + (t0 - last) * speed, t1,
                      REFERENCE_PROBE_S / statistics.median(self.probes))

    def now(self) -> float:
        """Normalized seconds since the clock was made, probes left out."""
        norm, last, speed = self.state
        return norm + (time.perf_counter() - last) * speed

    def raw(self) -> float:
        """Wall seconds (perf_counter), probes left out."""
        return time.perf_counter() - self.probe_total

    def scale(self, seconds: float) -> float:
        """Wall seconds converted at the current speed."""
        return seconds * self.state[2]

    def median_probe_s(self) -> float:
        return statistics.median(self.all_probes) if self.all_probes else float("nan")


class WallClock:
    """The plain clock, for traced runs."""

    now = raw = staticmethod(time.perf_counter)

    @staticmethod
    def scale(seconds: float) -> float:
        return seconds

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def median_probe_s(self) -> float:
        return float("nan")
