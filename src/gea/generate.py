"""Seeded random generation of valid tables for property testing.

Tables grow incrementally: start from the zero sums only, repeatedly draw a
trial sum x + y = z (x, y, z nonzero, x + y undefined) and keep it, on both
sides, only when the grown table still satisfies GE1..GE5.  Every returned
table therefore satisfies the GEA axioms by construction.

The table grown so far is valid, so a trial needs only a local check, which
gives the verdict of the full axiom scan of the trial table:

- GE1 holds because the sum is inserted on both sides, GE4 because z != 0,
  and GE5 because the zero row is never touched.
- GE3 (cancellation) can fail only in rows x and y, the rows that gain an
  entry: z must not already occur in either.
- GE2 (associativity, biconditional reading) can fail only at a triple
  (p, q, r) whose evaluation reads the new sum: every other triple reads
  the same entries as before and still holds.  A triple reads
  p + q, (p + q) + r, q + r and p + (q + r), and each of the four lookups
  gives one family of O(n) triples that reads the key (x, y).  The triples
  that read (y, x) are their mirror images (r, q, p), whose two sides are
  the same sums swapped by commutativity, so they hold with them.

The tables and the random draws are those of running the full scan on
every trial, at O(n) work per trial instead of one scan.
"""

from __future__ import annotations

import random
from typing import Iterator

from .algebra import AlgebraTable
from .errors import InputError


def random_gea(rng: random.Random, n: int) -> AlgebraTable:
    if n < 1:
        raise InputError("algebra needs at least one element")
    labels = tuple("0" if i == 0 else f"e{i}" for i in range(n))
    if n == 1:
        return AlgebraTable(labels, 0, {(0, 0): 0})
    s, to = _zero_sums(n)
    for _ in range(3 * n * n):
        x = rng.randrange(1, n)
        y = rng.randrange(1, n)
        z = rng.randrange(1, n)
        if s[x][y] == -1:
            _insert(s, to, x, y, z)
    return AlgebraTable(labels, 0, [(a, b, c) for a in range(n)
                                    for b, c in enumerate(s[a][:n]) if c != -1])


def _zero_sums(n: int) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """The dense table of the zero sums alone, and its pairs by value.

    s[a][b] is the index of a + b, or -1 when it is undefined.  The last
    row and column are -1 padding, so a lookup through an undefined sum,
    s[-1][b] or s[a][-1], reads -1 as well.  to[v] lists the pairs (a, b)
    with a + b = v."""
    s = [[-1] * (n + 1) for _ in range(n + 1)]
    s[0][:n] = range(n)
    for a in range(n):
        s[a][0] = a
    to = [[(0, v), (v, 0)] for v in range(n)]
    to[0] = [(0, 0)]
    return s, to


def _insert(s: list[list[int]], to: list[list[tuple[int, int]]],
            x: int, y: int, z: int) -> bool:
    """For nonzero x, y, z with x + y undefined: set x + y = y + x = z if
    the grown table still satisfies the axioms.  True iff it was set."""
    if z in s[x] or z in s[y]:  # GE3
        return False
    s[x][y] = s[y][x] = z
    if not _associative_at(s, to, x, y):
        s[x][y] = s[y][x] = -1
        return False
    to[z].append((x, y))
    if x != y:
        to[z].append((y, x))
    return True


def _associative_at(s: list[list[int]], to: list[list[tuple[int, int]]],
                    x: int, y: int) -> bool:
    """(p + q) + r = p + (q + r), both sides defined or neither, at every
    triple that reads the new sum x + y = z as one of its four lookups.
    The new sum is not yet in to: z differs from x and y (row x holds x at
    column 0, row y holds y), so to[x] and to[y] are already complete."""
    z = s[x][y]
    sx, sy, sz = s[x], s[y], s[z]
    return (
        # (x + y) + r = x + (y + r)
        sz == [sx[c] for c in sy]
        # (p + x) + y = p + (x + y)
        and [s[row[x]][y] for row in s] == [row[z] for row in s]
        # (p + q) + y = p + (q + y) where p + q = x
        and all(s[p][s[q][y]] == z for p, q in to[x])
        # (x + q) + r = x + (q + r) where q + r = y
        and all(s[sx[q]][r] == z for q, r in to[y]))


def random_population(seed: int, count: int, max_n: int = 6) -> Iterator[AlgebraTable]:
    """Reproducible stream of valid tables with 1..max_n elements, biased
    towards the larger sizes."""
    rng = random.Random(seed)
    sizes = [1] + [k for k in range(2, max_n + 1) for _ in range(4)]
    for _ in range(count):
        yield random_gea(rng, rng.choice(sizes))
