"""Host-speed normalisation for the benchmark's timings.

On a shared host the same computation can run at half speed for stretches
of 0.1 s to tens of seconds.  A fixed reference computation (the probe),
written here and calling nothing from the library, runs from a timer signal
every PROBE_EVERY_S of wall time, inside ops as well as between them.  Each
op's time, less the probes that ran inside it, is rescaled by how long the
probes in and around it took:

    normalised = (measured - probe time inside) * PROBE_NOMINAL_S / local probe time

so a slow phase of the host stretches the probe and the op alike and cancels
out, while a slower library stretches only the op.  PROBE_NOMINAL_S is the
probe's typical time on a 2.1 GHz Xeon VM, so normalised figures read close
to wall seconds on such a host.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

PROBE_EVERY_S = 0.02
# Probes this far either side of an op also count towards its local speed.
MARGIN_S = 0.025
PROBE_NOMINAL_S = 0.0005


def reference_work() -> int:
    """Fixed interpreter-bound work in the library's style: bit masks,
    dict and list traffic, float maths and short function calls."""
    acc = 0
    counts: dict[int, int] = {}
    masks = []
    for i in range(600):
        m = (i * 40503) & 0xFFF
        acc += bin(m).count("1")
        counts[m & 63] = counts.get(m & 63, 0) + 1
        masks.append(m & -m)
        acc ^= _step(m, i)
    acc += int(sum(math.log1p(x) for x in masks) * 1e6)
    acc += sum(sorted(counts.values())[:8])
    return acc


def _step(m: int, i: int) -> int:
    return (m ^ (i << 3)) % 97


class HostSpeed:
    """Probe times through a run, and the local speed factor of any span."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # increasing
        self.ends: list[float] = []
        self.took: list[float] = []

    def probe(self, *_signal_args) -> None:
        clock = time.perf_counter
        t0 = clock()
        reference_work()
        t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self.took.append(t1 - t0)

    @contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S from SIGALRM while the block runs.

        Python runs the handler in the main thread between bytecodes, so the
        probe lands inside whatever library call is running at the time.
        """
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        """Probes that start within MARGIN_S of [t0, t1], and at least the
        last one before t0 and the first one after t1."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        lo = min(lo, max(bisect.bisect_left(self.starts, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.starts, t1) + 1, len(self.starts)))
        return lo, hi

    def own_time(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 less the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return (t1 - t0) - sum(
            min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def normalised(self, t0: float, t1: float) -> float:
        lo, hi = self._window(t0, t1)
        return self.own_time(t0, t1) * PROBE_NOMINAL_S / statistics.fmean(self.took[lo:hi])
