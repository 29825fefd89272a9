"""Host-speed compensation: a fixed reference kernel sampled while a workload runs.

On a shared 2-vCPU virtual machine the same pure-Python work took up to 1.7
times as long from one phase of tens of seconds to the next, and CPU time
slowed exactly as wall time did; the two vCPUs did not slow together.  A raw
timing then measures the host's other load as much as the program.  The
sampler below interrupts the workload every ``period_s`` seconds
(``SIGALRM``), times one run of a small reference kernel that never touches
rsumlab, and keeps the sample.  Because the kernel runs on the same core at
nearly the same moment, its slowdown tracks the workload's.  The handler's own
time is taken out of every measured interval.

Timings are then reported in *reference seconds* (``ref_s``): an interval
of ``t`` host seconds counts as ``t * REF_KERNEL_S / kernel_seconds``, using the
kernel samples taken during it, weighted by the time each one stands for.
One ``ref_s`` is the time in which the host runs the kernel
``1 / REF_KERNEL_S`` times.  A change to rsumlab moves ``ref_s`` as it moves
host seconds; a change of host speed moves the kernel too and cancels out.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.02  # default host seconds of workload between two kernel samples
REF_KERNEL_S = 1e-3  # nominal seconds of one kernel run: defines the ref_s
WINDOW_S = 0.25  # shortest interval a speed estimate averages over

_SMALL = [np.random.default_rng(i).integers(0, 1 << 30, 64) for i in range(8)]


def kernel() -> int:
    """Fixed work shaped like rsumlab's inner loops: dict and int bytecode plus
    small numpy calls.  About 1 ms on a 2 GHz Xeon."""
    table, acc = {}, 0
    for i in range(2000):
        k = i & 255
        table[k] = table.get(k, 0) + (i ^ (i >> 3))
        acc += len(table) if i % 7 else 1
    for i in range(100):
        a = _SMALL[i & 7]
        acc += int(np.bitwise_or.reduce(a | (a >> 1))) & 1
    return acc


class SpeedSampler:
    """Kernel samples taken from a timer signal, and the handler time they cost."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.stolen_s = 0.0  # host seconds spent in the handler so far
        self._starts: list[float] = []
        self._weighted = [0.0]  # prefix sums of gap * REF_KERNEL_S / kernel seconds
        self._gaps = [0.0]  # prefix sums of the workload time each sample stands for
        self._last_end = 0.0
        self._active = False

    def _take(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        gap = max(start - self._last_end, 1e-6)
        self._starts.append(start)
        self._weighted.append(self._weighted[-1] + gap * REF_KERNEL_S / (end - start))
        self._gaps.append(self._gaps[-1] + gap)
        self._last_end = end
        self.stolen_s += end - start

    def _sample(self, signum, frame) -> None:
        self._take()
        if self._active:  # a handler run late must not re-arm a stopped timer
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every period_s while the block runs, and once at its end."""
        for _ in range(5):  # warm the kernel's code and arrays
            kernel()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._last_end = perf_counter()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._take()

    @property
    def samples(self) -> int:
        return len(self._starts)

    def factor(self, t0: float, t1: float) -> float:
        """ref_s per host second over [t0, t1], widened to at least WINDOW_S.

        Averages the samples taken in the window, each weighted by the workload
        time before it; falls back to the nearest sample when none fell inside.
        """
        mid = (t0 + t1) / 2
        lo = bisect.bisect_left(self._starts, min(t0, mid - WINDOW_S / 2))
        hi = bisect.bisect_right(self._starts, max(t1, mid + WINDOW_S / 2))
        if lo == hi:
            lo = min(lo, len(self._starts) - 1)
            if lo > 0 and mid - self._starts[lo - 1] < self._starts[lo] - mid:
                lo -= 1
            hi = lo + 1
        return (self._weighted[hi] - self._weighted[lo]) / (self._gaps[hi] - self._gaps[lo])
