"""Calibration: a fixed piece of work that measures the machine's speed.

On a shared VM the same pass can take twice as long a minute later, and the
speed also changes within tenths of a second, with CPU time equal to wall
time; raw times of one run cannot be compared with those of another.  While
an untraced pass runs, ``Sampler`` interrupts it every ``INTERVAL_S`` of wall
time, between two bytecodes of the main thread, and times ``kernel``; while
``polycs`` is imported, it times ``import_kernel``, which needs no numpy.
The worker takes the sampler's time out of each timed interval, and run.py
scales the interval to the machine speed at which the kernel takes its
reference time.

The kernel mimics what ``polycs`` spends its time on: complex scalar series
recurrences with Kahan summation, dict and float work in the interpreter,
and numpy calls on short arrays.  It calls nothing in ``polycs``, so no
change to the package can change it.  This module imports nothing outside
the standard library until the first ``kernel`` call.  Do not edit the
kernels: every normalised time is in their units, and an edit makes results
before and after incomparable.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

# Kernel time on an uncontended core of the 2-vCPU cloud VM (Python 3.11,
# numpy 2.4) on which the benchmark was defined: there the kernel took
# 0.15-0.18 ms or, while the core was contended, 0.27-0.45 ms, switching
# within about 100 ms.  It sets the scale of normalised times.
REFERENCE_S = 1.6e-4
INTERVAL_S = 0.005
# How much each workload slows down when the kernel does: an operation's
# time goes as the kernel's speed to the power -SENSITIVITY.  On that VM, over
# 40 passes per workload, the slope of the log of an operation's time
# against the log of its kernel time across passes, pooled over operations
# and weighted by time, was 0.84 (catalog), 1.00 (state-sweep) and 0.96
# (geometry).  run.py takes each operation's time from the passes that ran
# nearest REFERENCE_S, where the exponent matters least.
SENSITIVITY = {"catalog": 0.85, "state-sweep": 1.0, "geometry": 1.0}
# The same for the import of polycs, timed with import_kernel, which runs
# before numpy is imported: over 36 fresh processes on that VM the import
# time went as import_kernel's time to the power 0.93 (R^2 0.94), and the
# kernel took 0.045 ms on an uncontended core.
IMPORT_REFERENCE_S = 4.5e-5
IMPORT_SENSITIVITY = 1.0

_vec = None  # a short numpy array, made on the first kernel() call


def _series(n_terms: int, vec) -> complex:
    term = total = complex(1.0)
    comp = complex(0.0)
    acc = {}
    for n in range(n_terms):
        num = (0.5 + n) * (1.5 + n)
        term = term * num * ((0.3 + 0.1j) / (n + 1)) / ((2.5 + n) * (3.5 + n))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        acc[n & 7] = abs(term) + math.sqrt(n + 1.0)
        if vec is not None and n % 4 == 0:
            v = vec * acc[n & 7]
            total += float(v.dot(vec)) * 1e-12
    return total


def _arrays(n_steps: int, vec) -> float:
    x = 0.0
    table = {}
    for i in range(n_steps):
        x += math.sqrt(i + 1.0) * 1.0001
        table[i % 7] = x
        y = vec * x
        x += float(y.sum()) * 1e-9
    return x


def kernel() -> float:
    """Run the kernel once and return its time in seconds."""
    global _vec
    if _vec is None:
        import numpy

        _vec = numpy.linspace(0.1, 1.0, 16)
    start = time.perf_counter()
    _series(30, _vec)
    _arrays(60, _vec)
    return time.perf_counter() - start


def import_kernel() -> float:
    """The series part of the kernel without numpy; return its time in seconds."""
    start = time.perf_counter()
    _series(40, None)
    return time.perf_counter() - start


class Sampler:
    """Times a kernel every ``INTERVAL_S`` of wall time while running."""

    def __init__(self, timed=kernel) -> None:
        self.timed = timed
        # (perf_counter at the start, kernel s, wall s of the whole sample)
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self) -> None:
        """Time the kernel once now."""
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel_s = self.timed()
        self.samples.append((start, kernel_s, time.perf_counter() - start))
        self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
