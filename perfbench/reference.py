"""A fixed reference loop that measures the host's speed during each operation.

The benchmark's host shares its cores, and its speed drifts between levels
that last from seconds to minutes, by up to a factor of two.  The level of a
whole 35 s run moves a wall time by as much as the largest bound the
benchmark may set, so raw wall times cannot tell two versions of the program
apart.  So this loop is timed right before and right after each operation,
and every ``SAMPLE_SECONDS`` during it, from a SIGALRM handler in the same
thread.  An operation's *scaled* time is its wall time, less the time spent
in the handler, times ``REF_SECONDS`` divided by the mean of those loop
times: the time it would take on a host where the loop takes
``REF_SECONDS``.  The loop is the benchmark's own code, so a change to the
program cannot move it; it mixes interpreter work with small numpy calls, as
monosafe's finds and rollouts do.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# about the loop's time on the machine the benchmark was made on (2-core KVM
# guest, Python 3.11, numpy with OpenBLAS, one BLAS thread), so scaled times
# read as seconds there
REF_SECONDS = 0.0025
SAMPLE_SECONDS = 0.25       # the loop then takes about 1 % of a long operation

_rs = np.random.default_rng(0)
_A = _rs.standard_normal((12, 12)) + 12.0 * np.eye(12)
_B = _rs.standard_normal(12)


def reference_loop():
    """Seconds one pass of the fixed loop took."""
    t0 = time.perf_counter()
    counts, acc = {}, 0.0
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k
        acc += k * 0.5
    for _ in range(150):
        x = np.linalg.solve(_A, _B)
        acc += float(np.max(_A @ x))
    return time.perf_counter() - t0


def timed_scaled(fn):
    """``(fn(), wall seconds, scaled seconds, mean reference loop seconds)``.

    The wall time excludes the reference loops run during ``fn()``.
    """
    samples = [reference_loop()]
    sampling = [0.0]            # seconds spent in the handler

    def sample(signum, frame):
        t0 = time.perf_counter()
        samples.append(reference_loop())
        sampling[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sampling[0]
    samples.append(reference_loop())
    ref = statistics.mean(samples)
    return result, wall, wall * REF_SECONDS / ref, ref
