"""CPU time scaled to a fixed machine speed.

The machines the benchmark runs on are shared, and their speed drifts by
up to a factor of two within minutes, while the process keeps its CPU:
CPU time tracks wall time, so neither repeats from run to run.  While
the operations run, a profiling timer interrupts the process after each
`every` seconds of its CPU time and times a fixed reference loop, which
slows down with the machine.  Each stretch of an operation's CPU time
between two samples is divided by the reference time of the sample that
ends it, averaged with its neighbours' (see `smoothed`), and the sum is
scaled to a machine on which the reference loop takes REFERENCE_S.  The samples' own time is left out of the operation.

The reference loop belongs to the benchmark, not to the program, so a
change to the program moves the scaled time as it moves the real one.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

REFERENCE_S = 0.01
# samples on each side whose mean reference time stands for a sample's
WINDOW = 4


def reference_loop():
    """Fixed work of the program's kind: Python float arithmetic and
    numpy calls on small arrays, as in a simulation step."""
    a = np.arange(8.0)
    s = 0.0
    for i in range(3000):
        s += float(np.dot(a, a)) * 1e-9 + (i % 7) * 0.5
        a = (a * 1.0001 + 0.5) - 0.5
    return s


def reference_s():
    """CPU time of one reference loop."""
    t0 = time.process_time()
    reference_loop()
    return time.process_time() - t0


class SpeedMeter:
    """Samples the machine's speed while operations run."""

    def __init__(self, every):
        self.every = every    # CPU seconds of the program between samples
        self.starts = []      # CPU time at which each sample began
        self.durations = []   # CPU time each sample's reference loop took
        self._on = False
        self._sample()

    def _sample(self, *_):
        self.starts.append(time.process_time())
        self.durations.append(reference_s())
        # one shot at a time, so a sample is never interrupted by the next
        if self._on:
            signal.setitimer(signal.ITIMER_PROF, self.every)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the machine's speed while the block runs."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._on = True
        signal.setitimer(signal.ITIMER_PROF, self.every)
        try:
            yield self
        finally:
            self._on = False
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def smoothed(self):
        """Each sample's reference time, averaged over the WINDOW samples
        on each side.  A single sample is noisy, and dividing by noisy
        times biases the scaled time upwards: the mean of 1/d exceeds
        1/(mean d)."""
        d = np.asarray(self.durations)
        total = np.concatenate(([0.0], np.cumsum(d)))
        i = np.arange(len(d))
        lo, hi = np.maximum(i - WINDOW, 0), np.minimum(i + WINDOW + 1, len(d))
        return (total[hi] - total[lo]) / (hi - lo)

    def scaled(self, cpu0, cpu1):
        """(CPU time, scaled CPU time, sampling time) of the process CPU
        interval [cpu0, cpu1], the first two without the samples in it."""
        smoothed = self.smoothed()
        first = bisect.bisect_left(self.starts, cpu0)
        last = bisect.bisect_left(self.starts, cpu1)
        reference = smoothed[max(first - 1, 0)]
        start, scaled, sampled = cpu0, 0.0, 0.0
        for i in range(first, last):
            t, d = self.starts[i], self.durations[i]
            scaled += (t - start) / smoothed[i]
            reference, start = smoothed[i], t + d
            sampled += d
        scaled += (cpu1 - start) / reference
        return cpu1 - cpu0 - sampled, REFERENCE_S * scaled, sampled
