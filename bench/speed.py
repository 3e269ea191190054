"""How fast this machine runs the interpreter, sampled while units run.

On a shared machine the speed of one core swings by a quarter or more
within a minute, as neighbours come and go.  ``SpeedProbe`` runs a fixed
piece of reference work from a timer signal every ``INTERVAL`` seconds,
in the middle of whatever the benchmark is doing, and records how long it
took.  A unit's time divided by the median reference time sampled during it
(and a short margin around it) is then nearly independent of those swings.

The reference work shares no code with haantjes.  It is a small sparse
polynomial product over exact fractions, dict updates and a sort: the same
kind of interpreter work as the library's kernel, so both slow down alike.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
MARGIN = 0.25
# About the median duration of ``reference_work`` on the machine the
# baseline comes from; set-up times are scaled to this speed.
NOMINAL_REF_S = 0.00125

_rng = random.Random(7)
_P = [(tuple(_rng.randint(0, 3) for _ in range(4)), Fraction(_rng.randint(1, 9), _rng.randint(1, 5)))
      for _ in range(12)]
_Q = [(tuple(_rng.randint(0, 3) for _ in range(4)), Fraction(-_rng.randint(1, 9), _rng.randint(1, 5)))
      for _ in range(12)]


def reference_work() -> float:
    """Run the reference work once and return its duration.  The cyclic
    collector is paused, so its cost, which grows with the workload's heap,
    stays out of the reference."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict = {}
        for m1, c1 in _P:
            for m2, c2 in _Q:
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        sorted(item for item in acc.items() if item[1])
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Context manager that samples ``reference_work`` on a timer signal."""

    def __init__(self):
        self._samples: list = []   # (start time, duration)
        self.stamps: list = []
        self.durations: list = []

    def _sample(self, signum, frame):
        start = perf_counter()
        self._samples.append((start, reference_work()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.sort()
        self.stamps = [s for s, _ in self._samples]
        self.durations = [d for _, d in self._samples]
        return False

    def spent(self, t0: float, t1: float) -> float:
        """Time the probe itself took between t0 and t1."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        return sum(self.durations[lo:hi])

    def reference(self, t0: float, t1: float) -> float:
        """Median reference time sampled within ``MARGIN`` of [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - MARGIN)
        hi = bisect.bisect_right(self.stamps, t1 + MARGIN)
        if lo == hi:
            raise RuntimeError("no speed sample near a unit; the probe did not run")
        return statistics.median(self.durations[lo:hi])
