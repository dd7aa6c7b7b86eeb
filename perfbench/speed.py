"""Wall times rescaled to a fixed machine speed.

On a virtual machine that shares its cores with other tenants the speed
swings by 20-50% within a second and drifts over tens of seconds, which
swamps the differences a change to the library makes.  So every timing is
rescaled: a SIGALRM handler times a short slice of fixed pure-Python work
(dict and set traffic on string keys, exact Fraction sums, like the
library's) every ``SAMPLE_EVERY_S``, and a span of work is multiplied by
``REFERENCE_S`` over the mean slice time measured during it and next to it.
The handler's own time is taken out of every span.  On a 2-vCPU shared cloud
VM (Python 3.11) the rescaling cut the spread of the median of four
``betti --flavor dr`` calls from about 27% to about 5%.

A rescaled time reads as wall seconds on a machine that runs one slice in
``REFERENCE_S``; the raw wall times are reported next to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0005
SAMPLE_EVERY_S = 0.02


def reference_slice() -> Fraction:
    rows = {}
    for i in range(200):
        rows[f"c{i % 40},{i}"] = Fraction(i % 7 - 3, i % 5 + 1)
    keys = set(rows)
    total = Fraction(0)
    for key, value in rows.items():
        if key in keys:
            total += value
    return total


class SpeedSampler:
    """Samples the machine's speed from a timer signal while running.

    Only one sampler may run at a time in a process, since it owns SIGALRM.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        reference_slice()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def raw(self, start: float, end: float) -> float:
        """Wall time of [start, end) without the sampler's own time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """``raw(start, end)`` rescaled by the slices timed during it and next to it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        near = self.durations[max(lo - 1, 0) : hi + 1]
        if not near:
            raise RuntimeError("no speed sample near the span; was the sampler running?")
        return self.raw(start, end) * REFERENCE_S / statistics.fmean(near)
