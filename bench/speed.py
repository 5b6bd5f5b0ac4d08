"""Machine-speed probe: converts seconds measured now into reference seconds.

The machine this benchmark was built on is a shared virtual machine whose
speed drifts with its neighbours' load: identical passes took from 7.9 to
11.2 s within a minute, and the same pure-Python loop from 25 to 37 ms.
No run of a few tens of seconds averages that away, so every time the
benchmark reports is scaled by how fast the machine was while it was
measured.  The probe is a fixed pure-Python loop timed every 20 ms from a
SIGALRM handler on the measuring thread itself, so it samples the same
core at the same moments.  A time in reference seconds is the measured time
times ``REFERENCE_PROBE_S`` over the median probe time: what the work would
take on a machine where the probe loop takes ``REFERENCE_PROBE_S``.  Over
six identical genus-6 passes the scaling cut the range from 35% to 8%.

Each curve is scaled by the probe samples taken while it ran, widened by
``WINDOW_MARGIN_S`` on both sides so that a curve shorter than the probe
period still gets a few dozen samples.  The probe's own time is subtracted
from the measured time before scaling.
"""

from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

PROBE_ITERATIONS = 2000
PROBE_PERIOD_S = 0.02
REFERENCE_PROBE_S = 1e-4  # fixed: changing it rescales every reported time
WINDOW_MARGIN_S = 0.5


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t = perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i
        dt = perf_counter() - t
        self.times.append(t)
        self.samples.append(dt)
        self.spent += dt

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    @contextmanager
    def periodic(self):
        """Sample every PROBE_PERIOD_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per measured second between ``start`` and ``end``
        (``perf_counter`` values), or over all samples."""
        lo = bisect_left(self.times, start - WINDOW_MARGIN_S)
        hi = bisect_right(self.times, end + WINDOW_MARGIN_S)
        return REFERENCE_PROBE_S / statistics.median(self.samples[lo:hi] or self.samples)
