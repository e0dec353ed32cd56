"""Host speed, measured beside every timed op, so that times can be put on one scale.

The benchmark runs on a few cores of a shared host whose speed changes with
the host's other load: the same pass can take 1.7 times longer for minutes,
and the speed can switch several times a second.  A fixed kernel, written
here and calling nothing of premodular, is timed right before each op,
every ``TICK_S`` while the op runs (from a ``SIGALRM`` handler, whose time
is taken off the op's latency), and once after the last op.  Since the
host's speed stays put over a few milliseconds, an op's latency over the
mean of its kernel samples is the op's cost in kernel units, and
``REFERENCE_S`` turns that back into seconds: the time the op would take on
the host when the kernel takes ``REFERENCE_S``.  The kernel mixes what the
ops spend their time on, ``Fraction`` arithmetic and small LAPACK calls, so
that both slow down alike when the host does.

A change to premodular moves an op's latency and not the kernel's, so it
shows in the scaled times in full; the raw times go to the result record.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# Kernel time on a calm host (2 vCPUs, x86-64, numpy with OpenBLAS, one BLAS
# thread), which scaled times are quoted at.  A fixed number, so that runs
# on any day compare.
REFERENCE_S = 50e-6
REPEATS = 3  # back-to-back kernel runs per sample; the fastest is the sample
TICK_S = 0.02  # kernel samples inside a long op: about 1% of its time

_MATRIX = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5 - 2.0


def kernel():
    s = Fraction(0)
    for i in range(1, 12):
        s += Fraction(i % 7 - 3, i)
    for _ in range(4):
        np.linalg.eigvalsh(_MATRIX)
    return s


def sample() -> float:
    """The kernel's time now, in seconds: the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(latency: float, samples: list[float]) -> float:
    """``latency`` in seconds at the reference speed, from the kernel samples
    taken around and during it."""
    return latency * REFERENCE_S * len(samples) / sum(samples)


class Meter:
    """Kernel samples taken while an op runs, ``TICK_S`` apart."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to take off the op's latency

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
