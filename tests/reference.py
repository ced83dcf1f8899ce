"""Fraction references the tests compare the program against: rational
vectors over the witness slots, for `sampled_check` and acceptance criterion
5, and a brute-force LP oracle with the witness LPs of a table to run it on,
for `lp_feasible` and criterion 6."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from gea.algebra import induced_order
from gea.errors import InputError
from gea.lp import Echelon, LinearProgram
from gea.represent import DiagonalRep
from gea.states import additivity_program


@dataclass(frozen=True)
class FiniteVector:
    """Finitely supported rational vector over the witness slots."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.coords), Fraction(0))

    @staticmethod
    def basis(m: int, slot: int) -> "FiniteVector":
        return FiniteVector(tuple(Fraction(1 if i == slot else 0) for i in range(m)))


def random_rational_vector(rng: random.Random, m: int) -> FiniteVector:
    """Seeded sample vector: coordinates p/q with q <= 4 and value in [-5, 5]."""
    coords = []
    for _ in range(m):
        q = rng.randint(1, 4)
        p = rng.randint(-5 * q, 5 * q)
        coords.append(Fraction(p, q))
    return FiniteVector(tuple(coords))


def apply_operator(rep: DiagonalRep, a: int, x: FiniteVector) -> FiniteVector:
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return FiniteVector(tuple(e * c for e, c in zip(rep.operator(a), x.coords)))


def vector_state(rep: DiagonalRep, x: FiniteVector, a: int) -> Fraction:
    """The value <x, phi(a) x> = sum of entry * coordinate^2, exactly.

    Complex coordinates would contribute only their squared moduli here, so
    rational coordinates lose no generality."""
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return sum((e * c * c for e, c in zip(rep.operator(a), x.coords)), Fraction(0))


def bounded_by(rep: DiagonalRep, a: int, norm: Fraction, x: FiniteVector) -> bool:
    """Exact check of ||phi(a) x||^2 <= norm^2 ||x||^2 (squares avoid roots)."""
    return apply_operator(rep, a, x).norm_sq() <= norm * norm * x.norm_sq()


def basic_solution_feasible(program: LinearProgram) -> Optional[list[Fraction]]:
    """Independent feasibility oracle: enumerate basic solutions.

    A feasible region of this shape is nonempty iff some choice of rank-many
    linearly independent columns solves the system with nonnegative values.
    Exponential in the variable count; intended for small cross-checks only.
    """
    n = program.n_vars
    full = Echelon.of(program.rows, n)
    if full.conflict is not None:
        return None
    if full.rank == 0:
        return [Fraction(0)] * n
    for columns in itertools.combinations(range(n), full.rank):
        # These columns carry a basic solution iff each one becomes a pivot
        # and the restricted system stays consistent; it is then unique.
        restricted = Echelon.of([(tuple(coeffs[c] for c in columns), rhs)
                                 for coeffs, rhs in program.rows], len(columns))
        if restricted.conflict is not None or restricted.rank < len(columns):
            continue
        x = [Fraction(0)] * n
        for pivot, row in zip(restricted.pivots, restricted.rows):
            x[columns[pivot]] = Fraction(row[-1], row[pivot])
        if any(v < 0 for v in x):
            continue
        assert program.satisfied_by(x)
        return x
    return None


def pair_programs(table):
    """Every witness LP of a table: s(a) - s(b) = 1 for each order pair and
    for both normalizations of each separation pair."""
    pairs = list(induced_order(table).pairs_not_leq())
    pairs += [p for a in range(table.n) for b in range(a + 1, table.n) for p in ((a, b), (b, a))]
    for lo, hi in pairs:
        yield additivity_program(table, [({lo: Fraction(1), hi: Fraction(-1)}, Fraction(1))])
