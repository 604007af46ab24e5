"""Case times scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: on
two vCPUs of a Xeon host, one fixed case took 0.15 s and 0.26 s a minute
apart in one process, with CPU time equal to wall time, so the slowdown is
in the cores themselves and neither CPU time nor a median over a run
removes it.  This clock samples the
host's speed while the program runs and scales each stretch of program time
by it.

While the clock is running, an interval timer interrupts the process every
``INTERVAL`` seconds and times ``kernel()``, a fixed pure-Python workload
that shares no code with arrfree: products of sparse polynomials keyed by
exponent tuples, over the rationals, over big integers and modulo a prime,
the arithmetic arrfree's own layers spend their time on.  The kernel's time
near a moment, the median of the samples within ``WINDOW`` seconds of it, is
the host's slowness then.  A stretch of program time is scaled by
``REFERENCE_KERNEL_S`` over that median, so a case's scaled time is its
wall time on a host on which one kernel takes ``REFERENCE_KERNEL_S``.
The time spent in the kernel itself is taken out of every interval.

A faster arrfree makes the scaled times smaller exactly as it makes the wall
times smaller; only the host's drift is divided out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05
WINDOW = 0.3
# One kernel on the 2-vCPU Xeon host the benchmark was written on, when
# that host ran fast; only fixes the scale of the reported seconds.
REFERENCE_KERNEL_S = 0.002
_PRIME = 32003
_BIG = 1000003 ** 3


def kernel(n: int = 6) -> int:
    """Three products of sparse polynomials in three variables."""
    f = {(i, j, n - i - j): Fraction(i + 1, j + 2)
         for i in range(n + 1) for j in range(n + 1 - i)}
    g = {(i, n - i, 0): Fraction(2 * i - 3, i + 5) for i in range(n + 1)}
    f_int = {e: c.numerator * _BIG + c.denominator for e, c in f.items()}
    size = 0
    for a, b, p in ((f, g, None), (f_int, g, None), (f_int, f_int, _PRIME)):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = out.get(e, 0) + ca * cb
                out[e] = c % p if p else c
        size += len(out)
    return size


class HostClock:
    """Samples the host's speed while running; scales intervals by it.

    Use as a context manager around the code whose intervals are measured,
    then ask ``seconds(start, end)`` for any interval of ``perf_counter``
    readings taken inside it.
    """

    def __init__(self):
        self.samples = []        # (start, end) of each timed kernel
        self._mids = []
        self._saved = None

    def _sample(self, *_):
        started = perf_counter()
        kernel()
        self.samples.append((started, perf_counter()))

    def __enter__(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()
        self._mids = [(a + b) / 2 for a, b in self.samples]
        return False

    def _slowness(self, t: float) -> float:
        """Median kernel time within WINDOW of t (a neighbouring one if none)."""
        lo = bisect.bisect_left(self._mids, t - WINDOW)
        hi = bisect.bisect_right(self._mids, t + WINDOW)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.samples) - 1)
            hi = lo + 1
        return statistics.median(b - a for a, b in self.samples[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """Program time between start and end at the reference host speed."""
        first = bisect.bisect_left(self.samples, (start,))
        scaled, at = 0.0, start
        for a, b in self.samples[first:]:
            if b > end:
                break
            scaled += (a - at) / self._slowness((a + at) / 2)
            at = b
        scaled += (end - at) / self._slowness((end + at) / 2)
        return scaled * REFERENCE_KERNEL_S

    def wall(self, start: float, end: float) -> float:
        """Program time between start and end, the kernel's time taken out."""
        first = bisect.bisect_left(self.samples, (start,))
        inside = 0.0
        for a, b in self.samples[first:]:
            if b > end:
                break
            inside += b - a
        return end - start - inside
