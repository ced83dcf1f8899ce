"""Diagonal operator representation built from finitely many states.

Each element a maps to the diagonal operator with entries (s(a)), one slot
per state (a witness search's, or any), on finitely supported sequences
indexed by the slots.  For diagonal operators with nonnegative entries the
positivity order is the entrywise order: the quadratic form of B - A at x
is sum((b_s - a_s) x_s^2), nonnegative for every vector iff every entry
difference is nonnegative.  All arithmetic is exact.  The build checks each
state's length and sign only: each search checks its new states on every
defined sum in one packed pass, and verify_morphism checks zero, then every
slot in one more.  A DiagonalRep holds only the diagonals: the labels and
the zero are the table's, which its checks and its report take beside it.

The diagonals are stored as ints over one common denominator D, the lcm of
the states' denominators, so the build and every self-check
(additivity, injectivity, order reflection) compare and add ints, and the
operator norms are int numerators over D.  Positivity and the norm bounds
hold by construction: the build rejects a negative value, so each norm is
the largest entry of its diagonal.
The order check reads the induced order from the CheckedGEA of the
pipeline's one axiom scan.  phi(a) <= phi(b) fails exactly when some slot
has s(b) < s(a), so it rebuilds the witness search's masks from the built
diagonals, one sort per slot: phi reflects the order iff the slots cover,
at each a, every b not above a.  The reports write the numerators over D,
and the Fraction forms of the vector checks live in tests/reference.py.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from typing import Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA, first_nonadditive
from .errors import InputError
from .states import GeneralizedState, _cover


class DiagonalRep(namedtuple("DiagonalRep", "diagonals den")):
    """Element -> diagonal of its operator, one entry per witness slot.

    Entry s of phi(a) is diagonals[a][s] / den, with den > 0, for m slots.
    """

    __slots__ = ()

    def __new__(cls, diagonals: tuple[tuple[int, ...], ...], den: int = 1) -> DiagonalRep:
        if not diagonals:
            raise InputError("a representation needs one diagonal per element")
        if den <= 0:
            raise InputError("representation denominator must be positive")
        if len(set(map(len, diagonals))) > 1:
            raise InputError("representation diagonals must all have the same length")
        return super().__new__(cls, diagonals, den)

    @property
    def m(self) -> int:
        return len(self.diagonals[0])


def build_representation(gea: CheckedGEA,
                         states: Sequence[GeneralizedState]) -> DiagonalRep:
    """Assemble the diagonal representation a -> (s(a)), one slot per state.

    The construction is unconditional: it needs no separation property, and
    raises InputError unless each state has one nonnegative value per
    element.  No states give the zero-slot representation (every operator
    is the empty diagonal).
    """
    table = gea.table
    if any(len(s.nums) != table.n or min(s.nums, default=0) < 0 for s in states):
        raise InputError("each state needs one nonnegative value per element")
    den = lcm(*(s.den for s in states))
    columns = [[p * (den // s.den) for p in s.nums] for s in states]
    diagonals = tuple(zip(*columns)) if columns else ((),) * table.n
    return DiagonalRep(diagonals, den)


def _require_shape(rep: DiagonalRep, table: AlgebraTable) -> None:
    if len(rep.diagonals) != table.n:
        raise InputError("a representation needs one diagonal per element")


def verify_morphism(rep: DiagonalRep, table: AlgebraTable) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Self-check of the build: phi(zero) = 0, then entrywise additivity over
    the defined sums in key order, every slot in one packed pass; on failure
    the first violation, with (zero, zero, zero) for a nonzero phi(zero).
    InputError unless rep has one diagonal per element of the table."""
    _require_shape(rep, table)
    diagonals, zero = rep.diagonals, table.zero
    if any(diagonals[zero]):
        return False, (zero, zero, zero)
    bad = first_nonadditive(table, list(zip(*diagonals)))
    return bad is None, bad


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
    table order, over all pairs; on failure the first pair is returned, the
    lowest uncovered bit of the lowest a with one.  InputError unless rep
    has one diagonal per element of the table."""
    _require_shape(rep, gea.table)
    todo = gea.not_above()
    for column in zip(*rep.diagonals):
        todo = [t & ~c for t, c in zip(todo, _cover(column, True))]
    for a, missing in enumerate(todo):
        if missing:
            return False, (a, (missing & -missing).bit_length() - 1)
    return True, None


def operator_norm(rep: DiagonalRep) -> list[int]:
    """The operator norm of every diagonal phi(a), as an int numerator over
    rep.den: its largest |entry|, attained at the basis vector of that
    slot, and 0 with no slot."""
    return [max(max(d), -min(d)) if d else 0 for d in rep.diagonals]
