"""A fixed pure-Python reference kernel that times the machine, not the
program.

A shared machine changes speed from one stretch of a second to the next.
The benchmark brackets every timed stretch with runs of this kernel, taken
in the same process just before and just after it, and takes the
stretch's duration over theirs: both run at the speed of the moment, so
the ratio keeps the program's cost and drops the machine's drift.  Ratios
are reported in ms at REF_MS per kernel run.

The kernel multiplies dense bivariate polynomials whose coefficients are
reduced fractions held as integer pairs: dict, tuple and small-integer
work with a gcd per term, like the program's exact polynomial arithmetic.
It imports nothing but `math` and `time`, so a child process can run it
before it imports the program.  No change to the program can change it.
"""

import math
import time

# The ms one kernel run stands for: about its time in the fast stretches of
# a 2-vCPU x86-64 VM under Python 3.11, so figures read as ms there.
REF_MS = 2.0
_DEGREE = 6
_ROUNDS = 9
# What the kernel returns; anything else means it was not run as written.
CHECK = 69507


def kernel() -> int:
    gcd = math.gcd
    a = {(i, j): (i - 3 * j + 1, i + j + 2)
         for i in range(_DEGREE) for j in range(_DEGREE - i)}
    total = 0
    for _ in range(_ROUNDS):
        out = {}
        for (i, j), (n1, d1) in a.items():
            for (k, l), (n2, d2) in a.items():
                key = (i + k, j + l)
                n, d = n1 * n2, d1 * d2
                if key in out:
                    m, e = out[key]
                    n, d = n * e + m * d, d * e
                g = gcd(n, d)
                out[key] = (n // g, d // g)
        total += sum(n for n, _ in out.values())
    return total


def seconds() -> float:
    """One timed run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
