"""How fast the host runs this kind of code right now.

On a 2-core x86_64 virtual machine that shares its cores with other
tenants, the fastest ysystem_sweep pass read 8.7 s in one run and 14.1 s in
a run three minutes later.  A fixed reference kernel, timed alongside the
workload, slows by the same factor (about 35 ms on a quiet second there,
70 ms on a busy one), so pass and task times are reported as seconds on a
host where the kernel takes REFERENCE_S:

    corrected = measured * REFERENCE_S / kernel time measured alongside

The kernel does the arithmetic adet spends its time in (mpmath numbers at
160 bits, Python integers) and calls no adet code.  It runs with the
cyclic garbage collector off, so no collection adet's heap calls for lands
on it.  What it still shares with adet is the process's allocator and
mpmath itself: a change of mpmath's version or backend moves the kernel too.

Set-up times are not corrected.  Set-up is mostly importing, which the
kernel does not track: in two sets of ten qseries_exact runs half an hour
apart, the median set-up read 0.31 s and 0.24 s while the kernel read
40-55 ms in both, and scaling by the kernel widened the spread of set-up
times over ten seeds (0.18 against 0.12 as measured on pair_reports).
"""
import gc
import signal
import time
from contextlib import contextmanager

import mpmath as mp

# Kernel time on a quiet 2-core x86_64 host (Python 3.11, mpmath 1.3 on its
# pure-Python backend).
REFERENCE_S = 0.035


def reference_kernel():
    with mp.workprec(160):
        x = mp.mpf(1) / 3
        total = mp.mpf(0)
        for i in range(3000):
            total += x * x + mp.sqrt(x + i)
    n = 0
    for i in range(25000):
        n += (i * i) % 7
    return total, n


def _timed_kernel() -> tuple[float, float]:
    """(start, end) of one kernel run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Samples the kernel every INTERVAL_S seconds while a pass runs.

    The host's speed changes within seconds, so a task of several seconds
    needs samples taken during it.  A timer signal runs the kernel between
    two bytecodes of whatever task is running; the kernel touches no state
    the task can see (mpmath's working precision and the collector's state
    are restored on exit).  Sampling takes 35-70 ms of every INTERVAL_S; the
    samples' own time is taken out of the spans they fall in.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        self.samples = []  # (start, end) of each kernel run

    def _sample(self, *_):
        self.samples.append(_timed_kernel())

    @contextmanager
    def running(self):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def kernel_times(self):
        return [end - start for start, end in self.samples]

    def correct(self, start: float, end: float) -> float:
        """Corrected seconds of a span from start to end (a task or a pass).

        Kernel runs inside the span are removed from its time; the host speed
        is the mean kernel time over those runs and the nearest run on either
        side.
        """
        inside = [(s, e) for s, e in self.samples if start <= s and e <= end]
        before = [(s, e) for s, e in self.samples if e <= start][-1:]
        after = [(s, e) for s, e in self.samples if s >= end][:1]
        used = [e - s for s, e in before + inside + after]
        busy = (end - start) - sum(e - s for s, e in inside)
        return busy * REFERENCE_S / (sum(used) / len(used))
