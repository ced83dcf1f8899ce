"""Seeded random generation of valid tables for property testing.

Tables grow incrementally: start from the zero sums only, repeatedly try to
insert a random symmetric sum and keep it only when the full axiom scan still
passes.  Every returned table therefore satisfies the GEA axioms by
construction.
"""

from __future__ import annotations

import random
from typing import Iterator

from .algebra import AlgebraTable, check_gea_axioms


def random_gea(rng: random.Random, n: int) -> AlgebraTable:
    labels = tuple("0" if i == 0 else f"e{i}" for i in range(n))
    sums: dict[tuple[int, int], int] = {(0, 0): 0}
    for x in range(1, n):
        sums[(0, x)] = x
        sums[(x, 0)] = x
    if n == 1:
        return AlgebraTable(labels, 0, sums)
    for _ in range(3 * n * n):
        x = rng.randrange(1, n)
        y = rng.randrange(1, n)
        z = rng.randrange(1, n)
        if (x, y) in sums:
            continue
        trial = dict(sums)
        trial[(x, y)] = z
        trial[(y, x)] = z
        if check_gea_axioms(AlgebraTable(labels, 0, trial)).passed:
            sums = trial
    return AlgebraTable(labels, 0, sums)


def random_population(seed: int, count: int, max_n: int = 6) -> Iterator[AlgebraTable]:
    """Reproducible stream of valid tables with 1..max_n elements, biased
    towards the larger sizes."""
    rng = random.Random(seed)
    sizes = [1] + [k for k in range(2, max_n + 1) for _ in range(4)]
    for _ in range(count):
        yield random_gea(rng, rng.choice(sizes))
