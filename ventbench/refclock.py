"""Wall time scaled to a reference host speed.

The benchmark host is shared, and its speed drifts by 20 % or more over
seconds and minutes, so whole runs are fast or slow together and raw wall
times of identical work spread past any useful bound.  A ``RefClock``
samples the host's speed while it times an interval: every ``PERIOD_S`` a
SIGALRM handler times a fixed pure-Python kernel.  The interval's wall time,
less the time spent in the handler, times ``REF_KERNEL_S`` over the mean
kernel time, is the interval's length on a host where the kernel takes
``REF_KERNEL_S``.  A change to ventrc moves this figure as it moves the wall
time; a host that runs everything 20 % slower leaves it as it was.

Only the standard library is used, so the clock can run from the first line
of a fresh interpreter and take in the import of ventrc.  Traced runs do not
use it: the handler's time would land in whichever span it interrupts.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
KERNEL_LOOPS = 20000
REF_KERNEL_S = 3.0e-3  # about the kernel's median time on the reference host (README)


def kernel() -> float:
    """A fixed piece of interpreter work: float arithmetic and list stores."""
    s = 0.0
    buf = [0.0] * 64
    for i in range(KERNEL_LOOPS):
        s = 0.999 * s + (i & 15) * 1e-3
        buf[i & 63] = s
    return s + buf[0]


class RefClock:
    """Times one interval at a time in reference-host seconds."""

    def __init__(self):
        self.samples: list[float] = []   # kernel times of the current interval
        self.t0 = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def lap(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since ``start``, without stopping."""
        samples = list(self.samples)
        wall = time.perf_counter() - self.t0
        net = wall - sum(samples)
        if not samples:  # shorter than one period: sample once now
            t0 = time.perf_counter()
            kernel()
            samples = [time.perf_counter() - t0]
        return net * REF_KERNEL_S * len(samples) / sum(samples), wall

    def stop(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since ``start``; stops sampling."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        result = self.lap()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return result
