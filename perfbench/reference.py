"""Fixed reference kernel that measures how fast the machine runs right now.

The shared two-core box this benchmark was built on changes speed by up to 2x
over seconds to minutes (neighbouring load; CPU time tracks wall time, so it
is not preemption). Timing slices of this kernel before, during and after a
job, and scaling the job's time by them, cancels most of that drift. The
kernel mixes the same kinds of work as the program: scalar float recurrences
in Python, numpy calls on 49-element vectors, and a row recurrence over
800-point arrays. It does not use bispade, so a change to the program cannot
change it.

A normalized time is the time the work would take on a machine where this
kernel takes NOMINAL_S seconds.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

NOMINAL_S = 0.05
SLICES = 8  # a slice is 1/SLICES of the kernel
INTERVAL_S = 0.25  # a slice runs this often while a job runs


def kernel(parts: int = 1) -> float:
    """The whole kernel, or 1/parts of it."""
    import numpy as np  # not at module level: set-up timing starts with numpy unimported

    acc = 0.0
    for rep in range(320 // parts):
        x = 0.5 * (0.01 * rep) ** 2
        for m in range(7):
            for n in range(7):
                lag_prev, lag = 1.0, 1.0 + n - x
                for k in range(1, m):
                    lag, lag_prev = ((2 * k + 1 + n - x) * lag - (k + n) * lag_prev) / (k + 1), lag
                acc += math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) - 0.5 * x) * lag
    p0 = np.linspace(0.01, 1.0, 49)
    obs = np.arange(49.0)
    for _ in range(3200 // parts):
        p = np.clip(0.8 * p0 + 0.01, 0.0, None)
        acc += float(obs @ np.log(np.maximum(p / p.sum(), 1e-15)))
    x = np.linspace(-4.0, 4.0, 800)
    for _ in range(32 // parts):
        rows = np.empty((36, x.size))
        rows[0] = np.exp(-0.5 * x * x)
        rows[1] = math.sqrt(2.0) * x * rows[0]
        for m in range(1, 35):
            rows[m + 1] = (math.sqrt(2.0 / (m + 1)) * x * rows[m]
                           - math.sqrt(m / (m + 1)) * rows[m - 1])
        acc += float(rows.sum())
    return acc


def timed() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Machine speed around one job: kernel slices before, every INTERVAL_S during, after.

    The slices during the job run from a SIGALRM handler, between bytecodes of
    the job; `inside` is the time they took, to be taken off the job's time.
    With periodic=False only the slices before and after run, which keeps
    traced spans free of foreign time.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self.inside = 0.0

    def _slice(self) -> float:
        start = time.perf_counter()
        kernel(SLICES)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed * SLICES)
        return elapsed

    def _tick(self, signum, frame) -> None:
        self.inside += self._slice()

    def __enter__(self) -> "Sampler":
        self.samples, self.inside = [], 0.0
        self._slice()
        if self.periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()
        return False

    def kernel_s(self) -> float:
        """Mean whole-kernel time over the slices."""
        return statistics.fmean(self.samples)
