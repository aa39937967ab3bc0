"""Speed probe: the benchmark's correction for a vCPU whose speed changes.

On a shared host a vCPU alternates between a fast and a slow state (about
1.7x apart here), in stretches of a fraction of a second to minutes. How
much of a run falls in the slow state varies from run to run, and so does a
raw median time. The probe measures that speed while the workload runs:

- an interval timer (``SIGALRM``, every ``INTERVAL_S``) runs a fixed small
  kernel in this process, between two bytecodes of the workload, and
  records when it ran and how long it took;
- ``factor(start, end)`` is the mean kernel time over an interval divided
  by ``NOMINAL_S``, the kernel's time in the fast state. The slowest fifth
  of the samples is dropped first: those samples were hit by an interrupt,
  a page fault or the program's own file writes, not by the vCPU's state;
- a time divided by its interval's factor is the time the same work takes
  at nominal speed.

While a child process runs on the same core the timer is paused
(``paused()``), because its kernel would wait for the child. Such an
interval is described by ``burst()``: the kernel run back to back for
``BURST_S`` right before and right after the child.

The kernel resembles the program's own work (4x4 numpy calls and Python
arithmetic), so both slow down alike. A child process started from this
process inherits neither the timer nor the handler.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# Kernel time in the fast state of the 2-vCPU machine the benchmark was
# tuned on (its median there). Any fixed value would do: it only sets the
# scale of the corrected times.
NOMINAL_S = 1.8e-4
# Probes this close to an interval also describe it, so that an op shorter
# than INTERVAL_S still has samples.
MARGIN_S = 2 * INTERVAL_S
BURST_S = 0.05

_A = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
_B = np.eye(4)


def _kernel() -> float:
    x = 0.0
    for _ in range(15):
        w = np.linalg.eigvalsh(_A)
        x += float((_A @ _B)[0, 0] + w[0])
        for j in range(20):
            x += j * 0.5
    return x


def _factor(samples: list[float]) -> float:
    """Mean kernel time over NOMINAL_S, the slowest fifth dropped."""
    if not samples:
        raise RuntimeError("the speed probe took no sample")
    kept = sorted(samples)[: len(samples) - len(samples) // 5]
    return statistics.fmean(kept) / NOMINAL_S


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.running = False

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextlib.contextmanager
    def paused(self):
        running = self.running
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            if running:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """Slowdown over [start, end]."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        return _factor(self.seconds[lo:hi] or self.seconds[max(0, lo - 1):lo + 1])

    @staticmethod
    def burst() -> float:
        """Slowdown now, from the kernel run back to back for BURST_S."""
        samples = []
        end = perf_counter() + BURST_S
        while (start := perf_counter()) < end:
            _kernel()
            samples.append(perf_counter() - start)
        return _factor(samples)

    def nominal(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have lasted at nominal speed."""
        return (end - start) / self.factor(start, end)

    def summary(self) -> dict:
        q = statistics.quantiles(self.seconds, n=20)
        return {
            "samples": len(self.seconds),
            "kernel_us_p5_p50_p95": [1e6 * q[0], 1e6 * statistics.median(self.seconds), 1e6 * q[-1]],
            "nominal_us": 1e6 * NOMINAL_S,
        }
