"""A fixed computation that measures how fast the machine runs right now.

On a shared machine the speed of one process drifts by up to 1.7x over tens
of seconds (bench/NOTES.md), and that drift swamps run-to-run comparisons.
Around every op the benchmark times ``kernel()``: pure Python work shaped
like the engine's (Fraction arithmetic, tuples, dict lookups) that calls
nothing under ``src/``, so no change to the engine can move it.  Each op
time is divided by ``speed()``, how much slower than ``NOMINAL_S`` the
kernels around it ran.  The reported times are thus seconds at the
reference machine's nominal speed.
"""

import time
from fractions import Fraction

# Median time of one kernel() on the reference machine (2 vCPU VM,
# Python 3.11.7) when it ran at full speed.
NOMINAL_S = 0.005


def kernel():
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        a = Fraction(i, i + 1)
        b = Fraction(2 * i + 1, 3 * i + 2)
        key = (a + b, a * b)
        table[key] = table.get(key, 0) + 1
        acc = (acc + a * b) % 7
    return len(table), acc


def timed():
    """Seconds one kernel() takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed(kernel_s):
    """Slowdown against nominal speed, from the seconds of one kernel()."""
    return kernel_s / NOMINAL_S
