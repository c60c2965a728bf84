"""Host-adjusted time from a reference probe sampled all through the run.

A shared host switches between a fast and a slow mode, about 1.5x apart,
in bursts of tens of milliseconds whose share drifts over seconds to
minutes, so whole runs of the same code differ by up to that much in wall
time. To see how slow the host was *while* a sample ran, a timer signal
runs a small fixed probe every ``INTERVAL_S`` seconds of the run: CSV text
parsed to floats, a scipy sparse-times-dense product and a dense GEMM with
a softmax-style pass, the three kinds of work the package does. The probe
runs twice and only the second pass is timed, so its time does not depend
on what the interrupted work left in the caches. It is written with numpy
and scipy directly and never calls the package, so a change to the package
moves an adjusted time exactly as it moves the wall time, while a change of
host mode moves the probe and the sample together and cancels out.

A sample's wall time excludes the probes that ran inside it. With ``p`` the
mean duration of the probes that started inside the sample's interval
(widened around a short sample until it holds ``MIN_PROBES``, or
``NEAR_PROBES`` for a single query or loop call), the sample is reported
as ``wall * REFERENCE_S / p``: the time it would have taken with the host
at the speed where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import csv
import signal
import time

import numpy as np
import scipy.sparse

INTERVAL_S = 0.05
MIN_PROBES = 8
# A short call is adjusted by the probes nearest to it: the host's slow
# bursts last tens of milliseconds, so a wider window would mix them.
NEAR_PROBES = 2
# About the mean probe time inside the workloads on the baseline host
# (README.md), so that adjusted times there read about as wall times.
REFERENCE_S = 0.00045


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20250719)
        self._lines = [",".join(f"{v:.6f}" for v in row)
                       for row in rng.random((12, 64)).tolist()]
        self._adj = scipy.sparse.random(1500, 1500, density=2e-3, format="csr",
                                        random_state=rng)
        self._x = rng.random((1500, 16))
        self._a = rng.random((200, 64))
        self._w = rng.random((64, 64))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0  # seconds spent in probes so far

    def _kernel(self) -> None:
        [[float(v) for v in row] for row in csv.reader(self._lines)]
        self._adj @ self._x
        h = self._a @ self._w
        np.exp(h - h.max(axis=1, keepdims=True)).sum()

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()  # warm-up pass
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t2 - t1)
        self.busy += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """Start of a sample: (time, probe seconds so far)."""
        return time.perf_counter(), self.busy

    def wall(self, mark: tuple[float, float]) -> float:
        """Wall seconds since ``mark``, without the probes that ran since."""
        t0, busy0 = mark
        return time.perf_counter() - t0 - (self.busy - busy0)

    def adjust_call(self, t0: float, wall: float) -> float:
        """Adjusted time of a short call that started at ``t0``."""
        return wall * self.factor(t0, t0 + wall, NEAR_PROBES)

    def factor(self, t0: float, t1: float, min_probes: int = MIN_PROBES) -> float:
        """Multiplier from wall to adjusted seconds for the interval [t0, t1]."""
        n = len(self.starts)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < min(min_probes, n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return REFERENCE_S / (sum(self.durations[lo:hi]) / (hi - lo))
