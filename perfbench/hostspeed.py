"""Host-speed correction for the end-to-end timings.

On a shared host the same pure-Python work can take 50 % more CPU time in one
second than in the next.  Medians over a 30-second run do not remove that:
the slow and fast phases last from a fraction of a second to tens of
seconds.  So while a run is timed, a CPU-time
interval timer (``ITIMER_PROF``, every ``PERIOD`` CPU seconds) runs a fixed
probe, ``reference()``, and records how long it took.  A request's corrected
time is its thread CPU time, minus the probes that ran inside it, scaled by
``NOMINAL_PROBE_S / (mean probe time around it)``: the time it would have
taken on a host where the probe takes ``NOMINAL_PROBE_S``.

The probe is the benchmark's own code, so a change to the library speeds up
or slows down the requests but not the probe.
"""

from __future__ import annotations

import bisect
import signal
from time import thread_time

PERIOD = 0.01            # CPU seconds between probes
NEAREST = 25             # probes averaged for a request with fewer inside it
NOMINAL_PROBE_S = 0.0002  # probe time that corrected timings are scaled to

_ROW = tuple((1 << 40) + 17 * i for i in range(12))


def reference() -> tuple:
    """A fixed mix of two of the library's kinds of work: big-integer row
    operations and dict updates."""
    row = list(_ROW)
    for k in range(20):
        a, b = row[k % 12], row[(k + 5) % 12] | 1
        row = [x * b - y * a for x, y in zip(row, row[1:] + row[:1])]
        row = [x % 1000000007 + (1 << 40) for x in row]
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return row[0], counts[0]


class Sampler:
    """Probe samples taken while it runs; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []  # thread CPU time at each probe's start
        self.durations: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = thread_time()
        reference()
        self.starts.append(start)
        self.durations.append(thread_time() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def probe_time(self, start: float, end: float) -> float:
        """CPU seconds the probes took inside the interval [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        return sum(self.durations[lo:bisect.bisect_left(self.starts, end)])

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_PROBE_S over the mean probe time in [start, end), or over
        the NEAREST probes around it when fewer ran inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts)) if hi - lo < NEAREST else hi
        if hi == lo:
            raise RuntimeError("no host-speed probe ran")
        return NOMINAL_PROBE_S * (hi - lo) / sum(self.durations[lo:hi])

    def corrected(self, start: float, end: float) -> float:
        """Corrected seconds of the thread CPU interval [start, end)."""
        return (end - start - self.probe_time(start, end)) * self.factor(start, end)
