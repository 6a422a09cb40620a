"""Timings in reference seconds, so host speed drift cancels.

On a shared host the speed of the same code drifts by tens of percent
within minutes, and every workload drifts with it.  Each timed call is
therefore bracketed by a fixed calibration kernel — interpreter
arithmetic, dict and ``Fraction`` work and small NumPy operations, the
mix the workloads run — and its wall time is rescaled to a host on which
that kernel takes :data:`REFERENCE_S`::

    reference seconds = wall * REFERENCE_S / mean(kernel before, after)

The kernel is the benchmark's own code, so no change to the program can
speed it up or slow it down.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy

#: Wall time of one :func:`kernel` call on the reference host.
REFERENCE_S = 0.015


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time."""
    start = time.perf_counter()
    table = {}
    total = 0
    fraction = Fraction(0)
    for i in range(40_000):
        total += i * i
        table[(i * 7919) & 4095] = total
        if i % 64 == 0:
            fraction += Fraction(1, i + 1)
    array = numpy.arange(4096, dtype=numpy.float64)
    for _ in range(300):
        array = numpy.minimum(array, array * 1.0001) + 1.0
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """Call ``fn``; return ``(output, wall seconds, reference seconds)``."""
    before = kernel()
    start = time.perf_counter()
    output = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    after = kernel()
    return output, wall, wall * REFERENCE_S * 2.0 / (before + after)
