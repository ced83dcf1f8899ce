"""Diagonal operator representation built from a finite witness set.

Each element a maps to the diagonal operator with entries (s(a)) over the
witness slots, acting on finitely supported sequences indexed by the slots.
For diagonal operators with nonnegative entries the positivity order is the
entrywise order: the quadratic form of B - A at x is sum((b_s - a_s) x_s^2),
nonnegative for every vector iff every entry difference is nonnegative.
All arithmetic is exact.

The diagonals are stored as ints over one common denominator D, the lcm of
the witness states' denominators, so the build and every self-check
(additivity, injectivity, order reflection, norms and the sampled check)
compare and add ints.  The order check reads the induced order from the
CheckedGEA of the pipeline's one axiom scan.  The Fraction views
(operators, operator_norm) are for callers and reports; the Fraction
forms of the vector checks are kept in tests/reference.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, le, mul
from typing import Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA
from .errors import InputError
from .states import GeneralizedState, StateWitnessSet


@dataclass(frozen=True)
class DiagonalRep:
    """Element -> diagonal of its operator, one entry per witness slot.

    Entry s of phi(a) is diagonals[a][s] / den, with den > 0.
    """

    elements: tuple[str, ...]
    zero: int
    slot_labels: tuple[str, ...]
    diagonals: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise InputError("representation denominator must be positive")

    @property
    def m(self) -> int:
        return len(self.slot_labels)

    @property
    def operators(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every diagonal as Fractions (a read-only view)."""
        return tuple(self.operator(a) for a in range(len(self.diagonals)))

    def operator(self, element: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.den) for p in self.diagonals[element])


def build_representation(gea: CheckedGEA, witnesses: StateWitnessSet) -> DiagonalRep:
    """Assemble the diagonal representation a -> (s(a)) over the witness set.

    The construction is unconditional: it needs valid generalized states but
    no separation property.  An empty witness set gives the zero-slot
    representation (every operator is the empty diagonal).
    """
    table = gea.table
    for state in witnesses.states:
        state.validate(table)
    den = lcm(*(s.den for s in witnesses.states))
    columns = [[p * (den // s.den) for p in s.nums] for s in witnesses.states]
    diagonals = tuple(zip(*columns)) if columns else ((),) * table.n
    labels = tuple(f"s{i}" for i in range(len(witnesses.states)))
    return DiagonalRep(table.elements, table.zero, labels, diagonals, den)


@dataclass(frozen=True)
class MorphismCheck:
    passed: bool
    violations: tuple[tuple[int, int, int], ...]


def verify_morphism(rep: DiagonalRep, table: AlgebraTable) -> MorphismCheck:
    """Self-check of the build: the zero operator at zero and entrywise
    additivity over every defined sum."""
    violations = []
    diagonals = rep.diagonals
    if diagonals[rep.zero] != (0,) * rep.m:
        violations.append((rep.zero, rep.zero, rep.zero))
    for i, j, k in table.defined_sums():
        if tuple(map(add, diagonals[i], diagonals[j])) != diagonals[k]:
            violations.append((i, j, k))
    return MorphismCheck(not violations, tuple(violations))


def verify_injective(rep: DiagonalRep) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff the diagonal vectors are pairwise distinct; on failure the
    first colliding pair (a, b), a < b, in lexicographic order is returned."""
    first: dict[tuple[int, ...], int] = {}
    partner: dict[int, int] = {}  # first index of a row -> its first repeat
    for b, row in enumerate(rep.diagonals):
        a = first.setdefault(row, b)
        if a != b:
            partner.setdefault(a, b)
    if not partner:
        return True, None
    a = min(partner)
    return False, (a, partner[a])


def verify_order_reflecting(rep: DiagonalRep,
                            gea: CheckedGEA) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff phi(a) <= phi(b) in the operator order forces a <= b in the
    table order, over all pairs; on failure the first pair is returned."""
    diagonals = rep.diagonals
    for a, b in gea.order.pairs_not_leq():
        if all(map(le, diagonals[a], diagonals[b])):
            return False, (a, b)
    return True, None


def operator_norm(rep: DiagonalRep, a: int) -> Fraction:
    """Operator norm of the diagonal phi(a): its largest entry.

    The bound ||phi(a) x|| <= norm * ||x|| is attained at the basis vector of
    an argmax slot; sampled_check tests it on sampled vectors.
    """
    entries = rep.diagonals[a]
    if not entries:
        return Fraction(0)
    return Fraction(max(entries), rep.den)


def sampled_check(rep: DiagonalRep, rng: random.Random, count: int,
                  norms: Sequence[Fraction]) -> bool:
    """For each element a in turn, check count seeded vectors x for
    <x, phi(a) x> >= 0 and ||phi(a) x||^2 <= norms[a]^2 ||x||^2.

    The vectors come from one rng.randbytes call, element by element, vector
    by vector and slot by slot: each byte b is one integer coordinate, with
    square b * b.  The arithmetic is in integers: phi(a) is the int diagonal
    over rep.den, and with norms[a] = p/q the bound reads
    q^2 ||diagonal x||^2 <= (p den)^2 ||x||^2, so every vector gets the
    verdict of the Fraction reference in tests/reference.py.  For a
    representation built from valid states (every entry nonnegative, each
    norm the largest entry) the check passes whatever the draws.  Returns
    False at the first vector that fails.
    """
    m = rep.m
    squares = [b * b for b in rng.randbytes(len(rep.diagonals) * count * m)]
    start = 0
    for a, diagonal in enumerate(rep.diagonals):
        norm = Fraction(norms[a])
        image_scale = norm.denominator ** 2
        bound_sq = (norm.numerator * rep.den) ** 2
        diagonal_sq = [e * e for e in diagonal]
        for _ in range(count):
            x_sq = squares[start:start + m]
            start += m
            if (sum(map(mul, diagonal, x_sq)) < 0
                    or image_scale * sum(map(mul, diagonal_sq, x_sq)) > bound_sq * sum(x_sq)):
                return False
    return True


def extract_states(rep: DiagonalRep) -> list[GeneralizedState]:
    """Recover one generalized state per slot as a -> <e_s, phi(a) e_s>,
    the slot's column of the diagonals.

    Slot by slot this returns exactly the witnesses the representation was
    built from."""
    return [GeneralizedState(tuple(row[slot] for row in rep.diagonals), rep.den)
            for slot in range(rep.m)]
