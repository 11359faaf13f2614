"""Gauge of the machine's speed while a solve runs.

The host this benchmark runs on is shared, and its speed swings by
20-50 % in phases that last from a fraction of a second to minutes; a
solve slows with it.  While a timed solve runs, ``SpeedProbe`` runs a
fixed kernel of a few milliseconds every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, in the solve's own thread, so the kernel's times
sample the speed the solve itself gets.  A run reports the solve's wall
time, less the kernel's, scaled by ``NOMINAL_S / mean kernel time``:
the solve's wall time on a machine where the kernel takes ``NOMINAL_S``.
Set-up runs in child processes, which the handler cannot reach, so the
kernel runs right before and right after each of them instead.

The kernel uses only Python and numpy, never ``dfnvem``, so a change to
the program cannot change it.  It follows the solves' mix of interpreted
loops over dicts and many small dense products (as the VEM kernels make).
The handler cannot run while the program is inside one long native call
(a sparse LU, say); those stretches go unsampled.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.004     # about the kernel's time on a 2.1 GHz Xeon vCPU
INTERVAL_S = 0.25     # kernel period inside a solve: under 2 % of it
PRE_SAMPLES = 3       # kernel runs before a timed block, so none lacks samples


class SpeedProbe:
    def __init__(self):
        self.small = np.random.default_rng(0).random((8, 8))
        self.samples = []

    def kernel(self) -> None:
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        counts = {}
        for i in range(20_000):
            counts[i & 511] = counts.get(i & 511, 0) + i
        for _ in range(500):
            self.small @ self.small
        self.samples.append(time.perf_counter() - t0)

    def kernels(self) -> None:
        """Run the kernel ``PRE_SAMPLES`` times, outside any timed block."""
        for _ in range(PRE_SAMPLES):
            self.kernel()

    def scaled(self, seconds: float) -> float:
        """``seconds`` at the nominal speed, from the samples taken so far."""
        return seconds * NOMINAL_S / statistics.fmean(self.samples)

    def _tick(self, signum, frame) -> None:
        self.kernel()

    @contextlib.contextmanager
    def sampling(self):
        """Sample the machine's speed while the block runs.

        Afterwards ``work_s`` is the block's wall time less the kernel's,
        and ``scaled_s`` is that time at the nominal speed.
        """
        self.samples = []
        self.kernels()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.work_s = wall - sum(self.samples[PRE_SAMPLES:])
            self.scaled_s = self.scaled(self.work_s)
