"""Machine-speed reference for timing on a shared machine.

On a shared machine the speed a process gets can drift by up to 2x, in
phases that last from a second to minutes, which no choice of run length
averages away.  So every question's time is measured together with the
speed of a fixed pure-Python reference loop that does not touch jagg, and
reported at the speed at which that loop takes ``REFERENCE_S`` seconds.

Inside a worker the loop runs from a SIGALRM handler every ``INTERVAL_S``
seconds, so a call that lasts seconds is scaled by the speed sampled while
it ran; the handler's own time is taken out of the interval.  Timing a call
between two runs of the loop, before and after it, spread more than the raw
times did on calls of a second or longer.  A loop that also did long
division of big ints tracked the big-int-bound questions better but the
interpreter-bound ones, which are most of every workload, worse; see the
benchmark README for the measured spreads.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_LOOPS = 4000
REFERENCE_S = 0.001
INTERVAL_S = 0.05


def reference() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        pair = (i & 255, i >> 3)
        acc ^= (pair[0] * 31 + pair[1]) & 0xFFFF
    return perf_counter() - start


class Sampler:
    """Samples the reference loop on a wall-clock timer while active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []    # (start, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, reference()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without sampling, seconds at reference speed) for
        an interval that has just ended."""
        inside = [s for t, s in self.samples if start <= t < end]
        elapsed = end - start - sum(inside)
        return elapsed, elapsed * REFERENCE_S / statistics.fmean(inside or [reference()])
