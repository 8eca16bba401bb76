"""Correction of measured times for the speed of a shared host.

On a few vCPUs of a shared host the same call runs up to 1.5x slower while
other tenants load the machine, in phases of a second to minutes, so the
median of a run of tens of seconds moves with the host's load, not with the
program.  A fixed gauge, which calls nothing of the library, is therefore
timed right before and right after every measured call and, from a
``SIGALRM`` handler, every ``INTERVAL_S`` during it.  The call's time, less
the time spent in the handler, is reported scaled by ``REF_S`` over the mean
of those gauge times less their slowest tenth (a gauge that a preemption of
a few milliseconds hits weighs far more in the mean than the preemption
does in the call): in seconds of a host running at the speed the gauge had
when ``REF_S`` was measured.  A change to the library cannot move the
gauge, so it moves the scaled times by as much as it moves the wall times.

The gauge is six CSR matrix-vector products on a 150^2 5-point Laplacian.
Of three gauges tried on the baseline machine (this one, a pure-Python loop
and half of each), it divided out the host's phases best on all three
workloads, the pure-Python Gauss-Seidel sweep included (README.md).  A
handler runs only between bytecodes, so during a long C call it is delayed
to the call's return; the gauges before and after cover short calls.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

# the gauge's median time on the baseline machine (see README.md); it only
# sets the scale of the reported times
REF_S = 0.8e-3
INTERVAL_S = 0.05
BRACKET = 8             # gauges timed before and again after each call
_MATVECS = 6
_GRID = 150


def _laplacian(n: int) -> sp.csr_array:
    T = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
    I = sp.eye_array(n)
    return sp.csr_array(sp.kron(T, I) + sp.kron(I, T))


class HostSpeed:
    """Times the gauge; ``timed`` measures one call against it."""

    def __init__(self):
        self._A = _laplacian(_GRID)
        self._x = np.ones(_GRID * _GRID)
        self.gauge_s = []       # every gauge time of the run, in order
        self._during = []       # gauge times inside the current call
        self._paused = 0.0      # time spent in the handler during it
        for _ in range(BRACKET):
            self.gauge()        # warm-up: pages in the arrays
        self.gauge_s.clear()

    def gauge(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_MATVECS):
            self._A @ self._x
        elapsed = time.perf_counter() - t0
        self.gauge_s.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._during.append(self.gauge())
        self._paused += time.perf_counter() - t0

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its wall time less the gauges run inside
        it, and that time scaled to ``REF_S``."""
        before = [self.gauge() for _ in range(BRACKET)]
        self._during, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            try:
                result = fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                wall = time.perf_counter() - t0 - self._paused
        finally:
            signal.signal(signal.SIGALRM, previous)
        after = [self.gauge() for _ in range(BRACKET)]
        gauges = sorted(before + self._during + after)
        speed = statistics.fmean(gauges[:len(gauges) - len(gauges) // 10])
        return result, wall, wall * REF_S / speed
