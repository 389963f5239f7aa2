"""Host speed, measured with a fixed computation that does not use the package.

A shared host runs the same loop at a few distinct speeds, up to 2x apart,
and holds each speed for seconds to minutes, so whole runs of the benchmark
land at different speeds.  CPU time follows wall time through these changes:
the process is slowed, not descheduled.  The harness times the reference
kernel below every CAL_INTERVAL_S between operations and scales each
end-to-end time by REFERENCE_S / (the run's mean kernel time).  A reported
time is thus the time the operation would take on a host that runs the
kernel in REFERENCE_S.

The kernel mixes the kinds of work the pipeline does: interpreted scalar
arithmetic, object and dict handling, 4x4 dense linear algebra, numpy calls
on tiny arrays and vector passes over a few thousand elements.  It never
imports dicke_metrology, so a change to the package cannot move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025
CAL_INTERVAL_S = 0.5
_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0],
                    [0.3, 1.5, 0.2, 0.1],
                    [0.1, 0.2, 1.0, 0.4],
                    [0.0, 0.1, 0.4, 0.5]])
_PAIR = np.array([[1.0, 0.5], [0.5, 2.0]])
_GRID = np.linspace(0.0, 1.0, 4000)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> float:
    """About 28 ms on a 2-core Xeon VM, in five parts of similar length.

    With the host switching speeds over five minutes, the gaussian_sweep and
    photon_tables operations, divided by this kernel's time, spread 4% and 2%
    over 35-s windows, against 36% and 28% undivided.
    """
    acc = 0.0
    for i in range(20_000):  # interpreted float arithmetic
        acc += (i * 0.5) % 7.0
    table = {}
    for i in range(3_000):  # objects, dicts, calls
        pair = _Pair(i, float(i))
        table[i] = (pair.a, pair.b * 2.0)
        sorted([pair, pair], key=id)
    m = _MATRIX
    for _ in range(300):  # 4x4 symmetric eigenproblems
        w, v = np.linalg.eigh(m)
        m = (v * w) @ v.T
    for _ in range(400):  # numpy dispatch on 2x2 arrays
        a = np.array(_PAIR)
        acc += float(np.sqrt(abs(np.trace(a @ a) + np.linalg.det(a))))
    x = _GRID
    for _ in range(100):  # vector passes over 4000 elements
        acc += float(np.exp(-np.cumsum(x * x)).sum())
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Probe:
    """Kernel times, taken at most every CAL_INTERVAL_S when tick() is called."""

    def __init__(self, interval_s: float = CAL_INTERVAL_S):
        kernel()  # first-call costs of numpy's linalg
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._last = -float("inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """REFERENCE_S / mean kernel time: below 1 on a host slower than the reference."""
        return REFERENCE_S / statistics.fmean(self.samples)
