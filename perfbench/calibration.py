"""Machine-speed calibration for the end-to-end timings.

The machines this benchmark runs on are shared: the same op can take 20-40%
longer for tens of seconds while other work competes for the processor,
which is wider than any useful regression bound.  So the run times a fixed
kernel of the benchmark's own code (no monodeg code: big-integer matrix
powers and rational arithmetic, the two kinds of work the workloads do)
about once a second, and scales every op time by REFERENCE_S divided by the
kernel's time around that op.  A scaled time reads as the time on a machine
where the kernel takes REFERENCE_S; program changes move it, machine load
largely cancels.  run.py prints the unscaled figures next to the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracle

# A round figure near the kernel's time on an unloaded 2-core x86-64 VM with
# CPython 3.11.  Only ratios between runs matter, so it never changes.
REFERENCE_S = 0.035

_MATRIX = ((2, 1, -1, 0, 1), (-1, 0, 1, 1, 0), (1, 1, 0, -1, 2), (0, -2, 1, 1, 1), (1, 0, 2, 0, -1))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    oracle.degree_terms(_MATRIX, 250)  # entries grow to about 360 bits
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i, i * i + 1)
    return time.perf_counter() - t0
