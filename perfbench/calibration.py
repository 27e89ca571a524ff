"""Host-speed calibration of the host-time metrics.

On a shared host the speed of one thread swings by up to 2x, in phases
that last from a fraction of a second to minutes (a busy sibling
hyperthread or a neighbour on the same core): the same op was measured
at 1.0 s in one run and 1.6-2.2 s in the next, and a fixed loop timed
over 40 s switched between two levels 1.7-2x apart.  Medians over a run
cannot average that out, because one phase can cover a whole run.

So while a run is measured, a timer interrupts it every ``INTERVAL_S``
and times a short fixed pure-Python reference loop; each sample gives
the host's speed at that moment, ``REFERENCE_S / reference seconds``.
A span of host time is scaled by the mean speed sampled within it::

    scaled = (measured - time spent sampling) * mean speed

which is the span's time on a host that runs the reference loop in
``REFERENCE_S`` seconds.  A span too short to hold a sample takes the
mean of the last sample before it and the first after it.  The
reference is part of the benchmark, never of the program, so a change
to the program moves the scaled figures as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

#: Loop iterations of one reference timing.
REFERENCE_ITERATIONS = 600
#: The reference loop's seconds on the host the scaled figures are in:
#: its tenth-percentile time over 20 s on a shared 2.0 GHz Xeon host.
REFERENCE_S = 0.00034
#: Seconds between two samples.
INTERVAL_S = 0.02


class _Row:
    __slots__ = ("school", "grade", "score")

    def __init__(self, school: int, grade: int) -> None:
        self.school = school
        self.grade = grade
        self.score = 0


_ROWS = [_Row(i % 13, i % 5) for i in range(64)]


def _reference(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Dict, string, call and attribute work, like the program's own."""
    table = {}
    total = 0
    for i in range(iterations):
        row = _ROWS[i & 63]
        key = "u%d:%d" % (row.school, i % 211)
        table[key] = table.get(key, 0) + row.grade
        row.score += len(key)
        total += row.score if key in table else 0
    return total


def time_reference() -> float:
    """Seconds of one reference loop, with the cycle collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Speed samples taken on a timer while it is running (a context manager)."""

    def __init__(self) -> None:
        #: perf_counter() at each sample's start, and the speed it gave.
        self.times: List[float] = []
        self.speeds: List[float] = []
        #: host seconds spent sampling so far.
        self.spent = 0.0
        self._sampling = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a timer tick that arrived during a sample
            return
        self._sampling = True
        began = perf_counter()
        self.speeds.append(REFERENCE_S / time_reference())
        self.times.append(began)
        self.spent += perf_counter() - began
        self._sampling = False

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self) -> Tuple[float, float]:
        """The current (perf_counter(), seconds spent sampling)."""
        return perf_counter(), self.spent

    def scale(self, start: Tuple[float, float], end: Tuple[float, float]) -> float:
        """The span between two marks, in reference-host seconds."""
        first = bisect.bisect_left(self.times, start[0])
        last = bisect.bisect_left(self.times, end[0])
        within = self.speeds[first:last]
        if not within:
            within = self.speeds[max(first - 1, 0) : first + 1]
        measured = (end[0] - start[0]) - (end[1] - start[1])
        return measured * statistics.fmean(within)
