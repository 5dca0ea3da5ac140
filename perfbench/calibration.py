"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared virtual machine the same unit of work can run 1.5 times
slower for seconds or minutes at a time, because of load outside the
machine; process CPU time slows down with wall time, so it gives no
escape.  The benchmark therefore times this kernel just before and just
after every unit and also reports each unit's wall time divided by the
mean of the two: a slow phase lengthens both alike.  Set-up time is
scaled the same way, to seconds at the kernel speed REFERENCE_S.

The kernel mixes the operations heatode spends its time on (Fraction
row elimination and sums, float updates, tuple-keyed dict updates,
big-integer products) and never calls heatode, so a change to heatode
cannot move it.  Changing this kernel changes the unit of every
`wall_cal` metric: do it only in a change that also re-measures the
baseline.
"""

from __future__ import annotations

import time
from fractions import Fraction

# kernel_seconds() on the benchmark's VM in a quiet phase.  It only fixes
# the scale of `setup_s`; keep it constant so set-up times stay comparable.
REFERENCE_S = 0.045


def kernel() -> tuple:
    # Fraction row elimination, as in exact linear solving
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1) for j in range(40)]
            for i in range(30)]
    for p in range(6):
        pivot = rows[p]
        inv = 1 / pivot[p] if pivot[p] else Fraction(1)
        pivot = [v * inv for v in pivot]
        for i in range(30):
            if i != p and rows[i][p]:
                f = rows[i][p]
                rows[i] = [u - f * v for u, v in zip(rows[i], pivot)]
    # Fraction sums, float recurrences and tuple-keyed dict updates
    acc = Fraction(0)
    x, y = 0.0, 1.0
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 6000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        x = x * 0.999 + i * 1e-3
        y = y - 0.5 * y * 1e-4 + x * 1e-9
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + i
    # big-integer products
    big = 1
    for i in range(1, 400):
        big = big * (2 * i + 1) // (i % 5 + 1) + i
    return rows[-1][-1], acc, x, y, len(counts), big.bit_length()


def kernel_seconds() -> float:
    """Wall time of one kernel pass (about 60 ms on the benchmark's VM)."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
