"""Diagonal operator representation built from a finite witness set.

Each element a maps to the diagonal operator with entries (s(a)) over the
witness slots, acting on finitely supported sequences indexed by the slots.
For diagonal operators with nonnegative entries the positivity order is the
entrywise order: the quadratic form of B - A at x is sum((b_s - a_s) x_s^2),
nonnegative for every vector iff every entry difference is nonnegative.
All arithmetic is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .algebra import AlgebraTable, induced_order, require_gea
from .errors import InputError
from .states import GeneralizedState, StateWitnessSet


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


@dataclass(frozen=True)
class DiagonalRep:
    """Element -> diagonal of its operator, one entry per witness slot."""

    elements: tuple[str, ...]
    zero: int
    slot_labels: tuple[str, ...]
    operators: tuple[tuple[Fraction, ...], ...]

    @property
    def m(self) -> int:
        return len(self.slot_labels)

    @property
    def zero_op(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(0) for _ in range(self.m))

    def operator(self, element: int) -> tuple[Fraction, ...]:
        return self.operators[element]


def build_representation(table: AlgebraTable, witnesses: StateWitnessSet) -> DiagonalRep:
    """Assemble the diagonal representation a -> (s(a)) over the witness set.

    The construction is unconditional: it needs valid generalized states but
    no separation property.  An empty witness set gives the zero-slot
    representation (every operator is the empty diagonal).
    """
    require_gea(table)
    for state in witnesses.states:
        state.validate(table)
    operators = tuple(tuple(s.values[a] for s in witnesses.states)
                      for a in range(table.n))
    labels = tuple(f"s{i}" for i in range(len(witnesses.states)))
    return DiagonalRep(table.elements, table.zero, labels, operators)


@dataclass(frozen=True)
class MorphismCheck:
    passed: bool
    violations: tuple[tuple[int, int, int], ...]


def verify_morphism(rep: DiagonalRep, table: AlgebraTable) -> MorphismCheck:
    """Self-check of the build: the zero operator at zero and entrywise
    additivity over every defined sum."""
    violations = []
    if rep.operators[rep.zero] != rep.zero_op:
        violations.append((rep.zero, rep.zero, rep.zero))
    for i, j, k in table.defined_sums():
        summed = tuple(x + y for x, y in zip(rep.operators[i], rep.operators[j]))
        if summed != rep.operators[k]:
            violations.append((i, j, k))
    return MorphismCheck(not violations, tuple(violations))


def verify_injective(rep: DiagonalRep) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff the diagonal vectors are pairwise distinct; on failure the
    first colliding pair is returned."""
    n = len(rep.operators)
    for a in range(n):
        for b in range(a + 1, n):
            if rep.operators[a] == rep.operators[b]:
                return False, (a, b)
    return True, None


def entrywise_leq(rep: DiagonalRep, a: int, b: int) -> bool:
    """Positivity order between two built operators: phi(a) <= phi(b) iff
    every diagonal entry difference is nonnegative."""
    return all(x <= y for x, y in zip(rep.operators[a], rep.operators[b]))


def verify_order_reflecting(rep: DiagonalRep,
                            table: AlgebraTable) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff phi(a) <= phi(b) in the operator order forces a <= b in the
    table order, over all pairs."""
    order = induced_order(table)
    for a in range(table.n):
        for b in range(table.n):
            if a != b and entrywise_leq(rep, a, b) and not order.leq(a, b):
                return False, (a, b)
    return True, None


def operator_norm(rep: DiagonalRep, a: int) -> Fraction:
    """Operator norm of the diagonal phi(a): its largest entry.

    The bound ||phi(a) x|| <= norm * ||x|| is attained at the basis vector of
    an argmax slot, which is asserted here; sampled_check tests it on
    sampled vectors.
    """
    entries = rep.operators[a]
    if not entries:
        return Fraction(0)
    norm = max(entries)
    argmax = entries.index(norm)
    image = apply_operator(rep, a, FiniteVector.basis(rep.m, argmax))
    assert image.norm_sq() == norm * norm
    return norm


def apply_operator(rep: DiagonalRep, a: int, x: FiniteVector) -> FiniteVector:
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return FiniteVector(tuple(e * c for e, c in zip(rep.operators[a], x.coords)))


def vector_state(rep: DiagonalRep, x: FiniteVector, a: int) -> Fraction:
    """The value <x, phi(a) x> = sum of entry * coordinate^2, exactly.

    Complex coordinates would contribute only their squared moduli here, so
    rational coordinates lose no generality."""
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return sum((e * c * c for e, c in zip(rep.operators[a], x.coords)), Fraction(0))


def bounded_by(rep: DiagonalRep, a: int, norm: Fraction, x: FiniteVector) -> bool:
    """Exact check of ||phi(a) x||^2 <= norm^2 ||x||^2 (squares avoid roots)."""
    return apply_operator(rep, a, x).norm_sq() <= norm * norm * x.norm_sq()


def sampled_check(rep: DiagonalRep, rng: random.Random, count: int,
                  norms: Sequence[Fraction]) -> bool:
    """For each element a in turn, draw count vectors x exactly as
    random_rational_vector does and check <x, phi(a) x> >= 0 and
    ||phi(a) x||^2 <= norms[a]^2 ||x||^2.

    The arithmetic is in integers: x is scaled by 12 and phi(a) and norms[a]
    by the lcm of their denominators.  Both inequalities are homogeneous, so
    every vector gets the verdict vector_state and bounded_by would give it.
    Returns False at the first vector that fails.
    """
    randrange = rng.randrange  # randint(a, b) is randrange(a, b + 1)
    for a, entries in enumerate(rep.operators):
        norm = norms[a]
        scale = lcm(norm.denominator, *(e.denominator for e in entries))
        diagonal = [e.numerator * (scale // e.denominator) for e in entries]
        bound_sq = (norm.numerator * (scale // norm.denominator)) ** 2
        for _ in range(count):
            state = norm_sq = image_sq = 0
            for e in diagonal:
                q = randrange(1, 5)
                c2 = (randrange(-5 * q, 5 * q + 1) * (12 // q)) ** 2  # (12 p/q)^2
                state += e * c2
                norm_sq += c2
                image_sq += e * e * c2
            if state < 0 or image_sq > bound_sq * norm_sq:
                return False
    return True


def extract_states(rep: DiagonalRep) -> list[GeneralizedState]:
    """Recover one generalized state per slot as a -> <e_s, phi(a) e_s>.

    Slot by slot this returns exactly the witnesses the representation was
    built from."""
    recovered = []
    for slot in range(rep.m):
        basis = FiniteVector.basis(rep.m, slot)
        values = tuple(vector_state(rep, basis, a) for a in range(len(rep.operators)))
        recovered.append(GeneralizedState(values))
    return recovered
