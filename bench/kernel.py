"""Fixed reference kernel for machine-speed correction.

The benchmark runs this kernel next to every timed operation and
reports times in reference-speed seconds:

    reported = wall * NOMINAL_S / kernel_wall

where kernel_wall is the kernel's time measured around the operation.
The kernel mixes the three kinds of work biforge spends its time on:
plain-Python complex arithmetic (jet coefficients), Fraction arithmetic
(exact solves) and small numpy matmuls (jet matrices).  It imports
nothing from biforge, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: Median kernel time (one ``measure()``) on the reference machine, a
#: 2-core x86-64 container with CPython 3.11 and numpy 2.4.
NOMINAL_S = 0.0100

# Unitary (the 4-point DFT over 2), so repeated products never drift into
# subnormal or overflowing values.
_MATRIX = np.fft.fft(np.eye(4)) / 2.0


def _work() -> complex:
    z = 0.6 + 0.3j
    acc = 0j
    for _ in range(20000):
        acc = acc * z + (1.0 - 0.5j)
        z = z * (0.999 + 0.001j)
    f = Fraction(0)
    for i in range(1, 1000):
        f += Fraction(1, i * (i + 1))
    if f != Fraction(999, 1000):
        raise AssertionError("reference kernel lost exactness")
    m = np.eye(4, dtype=complex)
    for _ in range(2000):
        m = _MATRIX @ m
    return acc + complex(m[0, 0])


def measure(repeats: int) -> float:
    """Median wall time of ``repeats`` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
