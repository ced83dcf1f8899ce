"""How fast the host runs right now, from a fixed piece of pure-Python work.

The benchmark's host is shared, and the speed of its vCPUs changes by up to
1.5x in phases that last from seconds to minutes.  A whole run can fall into
one phase, so medians over a run move with the host.  To take that out, the
benchmark runs ``probe()`` between jobs and scales every measured time by
``REFERENCE_S / (median probe time around it)``: the reported times are
seconds at the speed at which one pass of the reference work takes
``REFERENCE_S``.  The raw times are kept next to them in the worker's result.

The reference work imports nothing from the program, so no change to the
program can move it.  It does the same kinds of work as the program:
exact Fraction elimination (the LP) and scans over dicts of tuples (the
axiom scans and the induced order).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds one pass of _reference_work takes in a fast phase of the machine
# described in README.md.  A constant, so that scaled times of two runs can
# be compared.
REFERENCE_S = 0.0035
SETUP_PROBES = 5  # probes a set-up child takes after importing gea.cli


def _elimination() -> int:
    """Gauss-Jordan elimination of a fixed 7 x 8 matrix in exact Fractions."""
    n = 7
    m = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(n + 1)]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sum(x.denominator for row in m for x in row)


def _scan(n: int = 40) -> int:
    """Associativity of the partial sum x + y = x | y (x & y = 0) on 0..n-1,
    checked through a dict of pairs, as the axiom scans do."""
    sums = {(x, y): x | y for x in range(n) for y in range(n) if x | y < n and not x & y}
    agree = 0
    for (x, y), s in sums.items():
        for z in range(n):
            yz = sums.get((y, z))
            if yz is not None and (s, z) in sums and (x, yz) in sums:
                agree += sums[(s, z)] == sums[(x, yz)]
    return agree


def _reference_work() -> int:
    return _elimination() + _scan()


def probe() -> tuple[float, float]:
    """(wall, cpu) seconds of one pass of the reference work.

    The garbage collector is off meanwhile, so the size of the program's
    heap does not change the probe's time."""
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        _reference_work()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        gc.enable()


def scale(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors (wall, cpu) that turn measured seconds into reference seconds."""
    return (REFERENCE_S / statistics.median(w for w, _ in samples),
            REFERENCE_S / statistics.median(c for _, c in samples))
