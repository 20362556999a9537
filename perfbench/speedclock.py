"""Timing in reference seconds, for a host whose speed drifts.

The shared hosts this benchmark runs on switch between a fast and a slow
state for stretches of a few seconds to a minute; the same job then
takes up to 1.7 times longer.  A run cannot avoid the slow stretches, so
it measures them: every INTERVAL_S seconds a SIGALRM handler runs a
short fixed yardstick (exact rational polynomial products, the kind of
work `weil` does, written here with the standard library only) in the
same process.  Afterwards each stretch of work between two yardsticks
is scaled by REF_S / (the median time of the four yardsticks around
it).  A duration so measured is the time the work would have taken on
a host where the yardstick takes REF_S; time spent in yardsticks is
left out.

The yardstick never changes with the program under test, so a faster
`weil` still reads faster; only the host's speed is divided out.  The
raw wall time (yardsticks left out) is reported next to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Seconds one yardstick takes in the fast state of the host the
# benchmark was defined on (2 cores of an Intel Xeon, Python 3.11.7).
REF_S = 0.006

INTERVAL_S = 0.2


def _poly(seed):
    """A fixed sparse polynomial in three variables over Q."""
    out = {}
    state = seed
    for _ in range(12):
        state = (state * 1103515245 + 12345) % 2**31
        key = (state % 4, state // 4 % 4, state // 16 % 4)
        coeff = Fraction(state // 64 % 7 - 3, state // 448 % 3 + 1)
        out[key] = out.get(key, 0) + coeff
    return out


def _mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            v = out.get(key, 0) + va * vb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def yardstick():
    """The fixed work."""
    x, y = _poly(7), _poly(8)
    _mul(_mul(x, y), x)


class SpeedClock:
    """Runs the yardstick every INTERVAL_S seconds while started.

    Times are `time.perf_counter()` readings.  Only one clock may run per
    process, in the main thread.  Call `stop` before `durations`.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self._old = None
        self.began = time.perf_counter()
        for _ in range(3):  # warm-up: the first calls in a process run slower
            yardstick()
        self._tick()
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        yardstick()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        self._tick()

    def yardsticks(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def factors(self):
        """Reference seconds per raw second of each stretch between yardsticks."""
        ys = self.yardsticks()
        return [REF_S / statistics.median(ys[max(0, i - 1):i + 3])
                for i in range(len(ys) - 1)]

    def durations(self, a, b, factors=None):
        """(reference seconds, raw seconds) of work between times a and b."""
        if factors is None:
            factors = self.factors()
        ref = raw = 0.0
        # stretch i runs from the end of yardstick i to the start of i + 1
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        while i < len(factors) and self.ends[i] < b:
            overlap = min(b, self.starts[i + 1]) - max(a, self.ends[i])
            if overlap > 0:
                raw += overlap
                ref += overlap * factors[i]
            i += 1
        return ref, raw
