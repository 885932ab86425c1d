"""Machine-speed calibration for timings taken on a shared host.

On a shared virtual machine the same work can take 30-50 % longer from one
minute to the next, because of load outside the container. Throughput is
therefore scaled by the speed of a fixed reference computation, sampled
every PERIOD_S during the measurement: it is reported as it would have been
at the speed where `reference()` takes NOMINAL_S. The
reference is benchmark code that no change to the program can alter. Its mix
of interpreted float arithmetic, small numpy operations, exact fractions and
dict rows follows the program's hot paths, so it slows down with the host
roughly as the program does.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.005     # reference time that defines the reported speed
PERIOD_S = 0.1        # sampling period during a measurement


def _pair(a, b, budget):
    f = max(0, int(math.floor(min(a, budget / 10.0, 8.0) + 1e-9)))
    g = max(0, int(math.floor(min(b, budget / 10.0, max(8.0 - f, 0.0)) + 1e-9)))
    y = 50.0 if f + g <= 6.0 else 24.0
    total = a + b
    return f * y - f * 10.0 - 0.25 * total * a, g * y - g * 10.0 - 0.25 * total * b


def reference():
    """A fixed computation of about NOMINAL_S on an idle 2 GHz Xeon core."""
    acc = 0.0
    for rep in range(6):
        row = np.empty((11, 11))
        col = np.empty((11, 11))
        for i in range(11):
            for j in range(11):
                row[i, j], col[i, j] = _pair(i, j, 100.0 + rep)
        best = (row >= row.max(axis=0, keepdims=True)) & (col >= col.max(axis=1, keepdims=True))
        acc += float(np.argwhere(best).sum())
    x = Fraction(0)
    for k in range(1, 200):
        x += Fraction(k, k + 1) * Fraction(3, 7)
    rows = [{"year": y, "value": y * 1.5} for y in range(1000)]
    return acc + sum(r["value"] for r in rows) + float(x)


def slowdown(samples):
    """How much slower than nominal the host ran while the samples were taken."""
    return statistics.fmean(samples) / NOMINAL_S


class Sampler:
    """Runs `reference()` every PERIOD_S of wall time from a SIGALRM handler,
    so samples spread evenly over the measurement, whatever its batch
    boundaries. `spent` is the time the samples took, to subtract from the
    timed work they interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # so even a short measurement has a sample
        return False
