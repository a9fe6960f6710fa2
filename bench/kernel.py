"""Reference kernel that sets the benchmark's unit of time.

The kernel evaluates complex powers and logarithms on a (15, 256) array of
points, the shape of one Gauss-Kronrod panel over a batch of points, in a
short Python loop.  It never calls cesaronorm.  Timed next to cesaronorm's
operations on a 2-core VM whose cores slow down and speed up with the load
of other tenants, this shape tracked the operations' speed better than a
loop over tiny arrays, a large memory-bound grid or pure Python arithmetic.

Timings are reported in nominal seconds: raw seconds * NOMINAL_S / (the
run's median kernel time).  On a core that runs at its usual speed the two
agree; when the core slows down for the whole run, the kernel slows with
it and the scaled figure stays put.

Re-measure the nominal time with

    OPENBLAS_NUM_THREADS=1 python3 bench/kernel.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-core x86_64 VM,
# Python 3.11.7, numpy 2.4.6, one BLAS thread), from `python3 bench/kernel.py`.
NOMINAL_S = 0.0041

_T = 0.5 * (np.linspace(-0.99, 0.99, 15) + 1.0)[:, None]
_Z = 0.9 * np.exp(2j * np.pi * np.arange(256) / 256)[None, :]


def kernel() -> float:
    """One fixed unit of work; returns a checksum."""
    acc = 0.0
    for i in range(3):
        w = _T * _Z * (1.0 - 0.01 * i)
        g = (1.0 - w) * (1.0 + w)
        f = np.power(g, -0.4) / (2.7 - np.log(g))
        acc += float(np.abs(f).sum())
    return acc


def timed_kernel() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measure(calls: int = 400) -> float:
    """Median kernel time over `calls` calls after a short warm-up."""
    for _ in range(10):
        kernel()
    return statistics.median(timed_kernel() for _ in range(calls))


if __name__ == "__main__":
    print(f"median kernel time {measure():.6f} s (NOMINAL_S = {NOMINAL_S})")
