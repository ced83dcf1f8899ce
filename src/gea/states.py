"""Generalized-state witnesses computed by exact linear programming.

A generalized state assigns a nonnegative rational to every element, is zero
at zero, and is additive over every defined sum.  States form a cone, so a
strict inequality s(a) > s(b) can always be normalized to s(a) - s(b) = 1;
that normalization is what makes each witness search a single feasibility LP.

The LP runs over the atoms alone: the nonzero elements that are not a sum of
two nonzero elements, which the scan's Kahn order along u -> u + v,
v -> u + v puts first (see gea.algebra).  A non-atom x has an atom row
p + x' = x (p an atom, x' nonzero): if x = u + v with u = p + u', GE2 gives
x = p + (u' + v), and GE4 keeps u' + v != 0.  Its first one (least p, then
least x') defines vec(x) = e_p + vec(x'), with vec(0) = 0, and C holds
vec(x) - e_q - vec(y) for each other atom row q + y = x.
 * s -> s|atoms is injective on states: along the order, s(x) = s(p) + s(x')
   = vec(x)·v for v = s|atoms, and the atom rows give C v = 0.
 * Each v >= 0 with C v = 0 is the restriction of s(x) = vec(x)·v, which is
   nonnegative and holds every atom row.  It holds each defined i + j = k by
   induction on i along the order (an atom i gives an atom row): with
   i = p + i' its defining row, GE2 gives p + (i' + j) = k, so
   s(k) = s(p) + s(i' + j) = s(p) + s(i') + s(j) = s(i) + s(j).
So the state cone is {v >= 0 : C v = 0}, and the pair LP C v = 0,
(vec(a) - vec(b))·v = 1, v >= 0 is feasible exactly when the LP over every
element and every defined sum is.  C is empty on chains, cubes and down-sets
of N^m.  A search builds C once, factored, and each pair LP extends it by one
row.  The LP rechecks its point only against those rows, so after its walk
a search checks all its states on every defined sum in one packed pass.  A
search starts from no states: each slot holds a state that its LP found, and
the search returns one immutable record of its goal, its states, the pair
that made each slot and the pairs that failed.

The searches take a CheckedGEA, the table, order and atoms that one axiom
scan produced, so they scan nothing themselves, and the atom program rests on
the axioms that scan proved.  A state is stored as int numerators over one
positive denominator, in lowest terms, into which _AtomProgram.witness reads
the LP's Fraction point.  Coverage is one int bit mask per element: want[a]
holds the b to cover at a (each b not above a for the order goal, each b > a
to separate), and a slot covers at a the b with s(b) < s(a), or
s(b) != s(a), read off one sort of its values.  The LP is asked only about
the lowest bit of want[a] that no slot covers, so pairs reach it in
lexicographic order.  A pair fails with no LP when the state preorder ⊑
(s(a) <= s(b) on every state) already holds it: ⊑ starts as the induced
order, and each failed LP adds its pair, and ⊑ stays transitively closed
(see _AtomProgram).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA, first_nonadditive
from .errors import ContractError, InputError
from .lp import LinearProgram, Row, lp_feasible


class GeneralizedState(namedtuple("GeneralizedState", "nums den")):
    """Exact valuation on the elements of one table: s(i) = nums[i] / den.

    den is positive and the vector is stored in lowest terms, so two states are
    equal iff they agree as rational vectors."""

    __slots__ = ()

    def __new__(cls, nums: tuple[int, ...], den: int = 1) -> GeneralizedState:
        if den <= 0:
            raise InputError("state denominator must be positive")
        common = gcd(den, *nums)
        return super().__new__(cls, tuple(p // common for p in nums), den // common)

    def validate(self, table: AlgebraTable, additive: bool = True) -> None:
        """Raise InputError unless this is a generalized state on the table:
        one nonnegative value per element, zero at zero and, unless additive
        is False, additive on every defined sum."""
        nums = self.nums
        if len(nums) != table.n:
            raise InputError("state length does not match element count")
        if min(nums) < 0:
            raise InputError("state values must be nonnegative")
        if nums[table.zero] != 0:
            raise InputError("state must vanish at zero")
        bad = first_nonadditive(table, [nums]) if additive else None
        if bad is not None:
            raise InputError(
                f"state is not additive on {table.elements[bad[0]]}+{table.elements[bad[1]]}")


class StateWitnessSet(namedtuple("StateWitnessSet", "goal states provenance failures")):
    """Finite witness set for goal ("order" or "separate"): provenance[slot]
    is the pair whose LP produced states[slot], and failures lists the pairs
    no state can witness; the search succeeded iff it is empty."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def additivity_program(gea: CheckedGEA) -> LinearProgram:
    """The atom program of one table, built and factored once: C v = 0 over
    one variable per atom, in index order, each distinct row of C once.
    ContractError when the scan's Kahn order misses an element, as on a
    cycle of sums, which no table that passed the scan has."""
    table, z, atoms = gea.table, gea.table.zero, gea.atoms
    if len(gea.topological) != table.n - 1:
        raise ContractError("the sums of nonzero elements form a cycle")
    into: list[list[tuple[int, int]]] = [[] for _ in range(table.n)]
    for p in atoms:  # into[k]: the atom rows p + x = k, by p, then x
        row = table.rows[p]
        for x in table.cols[p]:
            if x != z:
                into[row[x]].append((p, x))
    vecs: list[tuple[int, ...]] = [(0,) * len(atoms)] * table.n
    for c, p in enumerate(atoms):
        vecs[p] = (0,) * c + (1,) + (0,) * (len(atoms) - c - 1)
    chain, rows = [], {}  # rows: C as an ordered set
    for x in gea.topological[len(atoms):]:
        (p, rest), *others = into[x]
        vecs[x] = tuple(map(add, vecs[p], vecs[rest]))
        chain.append((x, p, rest))
        for q, y in others:
            rows[_difference(vecs[x], tuple(map(add, vecs[q], vecs[y])))] = 0
    rows.pop((), None)
    return _AtomProgram(atoms, chain, vecs, rows.items(), gea.above)


def _difference(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The nonzero entries of a - b as sparse row pairs."""
    return tuple((j, x - y) for j, (x, y) in enumerate(zip(a, b)) if x != y)


class _AtomProgram(LinearProgram):
    """C v = 0, where atoms[c] is the atom of column c, vecs[x] is vec(x)
    as one int per atom, and chain holds each non-atom x as (x, p, x') for
    its defining row, in topological order.  below[x] is the int mask of
    the y with x ⊑ y found so far, where x ⊑ y means s(x) <= s(y) on every
    state.  It starts as the induced order, since s(y) = s(x) + s(y - x) >=
    s(x); each failed pair LP adds its pair, closing ⊑ transitively, and
    witness runs no LP for a pair that ⊑ holds."""

    def __init__(self, atoms: Sequence[int], chain: list[tuple[int, int, int]],
                 vecs: list[tuple[int, ...]], rows: Iterable[Row],
                 above: Sequence[int]) -> None:
        super().__init__(len(atoms), rows)
        self.atoms, self.chain, self.vecs = atoms, chain, vecs
        self.below = list(above)

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A state with s(lo) - s(hi) = 1, from the LP point over the atoms
        and the defining rows, or None.  The pair row (vec(lo) - vec(hi))·v
        = 1 reads 0 = 1 when vec(lo) = vec(hi).  A row that reduces to 0 = c
        proves s(lo) = s(hi), so it settles both orders of the pair."""
        if self.below[lo] >> hi & 1:
            return None
        program = self.extended([(_difference(self.vecs[lo], self.vecs[hi]), 1)])
        v = lp_feasible(program)
        if v is None:
            self._settle(lo, hi)
            if program.conflict is not None:
                self._settle(hi, lo)
            return None
        point = [(p, value) for p, value in zip(self.atoms, v) if value]
        den = lcm(*(value.denominator for _, value in point))
        nums = [0] * len(self.vecs)
        for p, value in point:
            nums[p] = value.numerator * (den // value.denominator)
        for x, p, rest in self.chain:
            nums[x] = nums[p] + nums[rest]
        return GeneralizedState(tuple(nums), den)

    def _settle(self, lo: int, hi: int) -> None:
        """Add lo ⊑ hi: every x ⊑ lo gets every y with hi ⊑ y, which keeps ⊑
        transitive."""
        bit, up = 1 << lo, self.below[hi]
        self.below = [mask | up if mask & bit else mask for mask in self.below]


def _cover(values: Sequence[int], order: bool) -> list[int]:
    """Per element a, the mask of the b that a state with these values
    covers at a: s(b) < s(a) for the order goal, s(b) != s(a) to separate."""
    level: dict[int, int] = {}  # value -> mask of the elements that take it
    for b, value in enumerate(values):
        level[value] = level.get(value, 0) | 1 << b
    full, below, mask_of = (1 << len(values)) - 1, 0, {}
    for value in sorted(level):
        mask_of[value] = below if order else full ^ level[value]
        below |= level[value]
    return [mask_of[value] for value in values]


def assign_witnesses(table: AlgebraTable, goal: str, want: Sequence[int],
                     find: Callable[[int, int], Optional[GeneralizedState]]) -> StateWitnessSet:
    """The witness set of one search for goal ("order" or "separate"): each
    pair (a, b), b a bit of the mask want[a], is covered by a state of the
    set, in lexicographic order.  For a pair no state covers, find(a, b) is
    asked for a new state, whose length, sign and zero are checked; it takes
    the next slot, with (a, b) at that slot of provenance (it covers (a, b),
    so it equals no state in the set), or the pair is a failure.  The LP
    rechecked the states only against the atom program, so one packed pass
    at the end checks them on every defined sum: InputError for the first
    that fails, in slot order, with its own first failing sum."""
    states, provenance, failures = [], [], []  # failures and provenance hold (a, b) pairs
    order, todo = goal == "order", list(want)
    try:
        for a in range(len(todo)):
            while todo[a]:
                b = (todo[a] & -todo[a]).bit_length() - 1
                todo[a] ^= 1 << b
                state = find(a, b)
                if state is None:
                    failures.append((a, b))
                    continue
                state.validate(table, additive=False)
                provenance.append((a, b))
                states.append(state)
                todo = [t & ~c for t, c in zip(todo, _cover(state.nums, order))]
    finally:  # on a shape error too: an earlier slot's error comes first
        if first_nonadditive(table, [s.nums for s in states]) is not None:
            for state in states:
                state.validate(table)
    return StateWitnessSet(goal, states, provenance, failures)


def order_determining_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair order witnesses for every (a, b) with a not below b.

    A witness already found for an earlier pair is reused when it also covers
    the current one, so the result stays small; pairs are scanned in index
    order, which makes the output deterministic.
    """
    return assign_witnesses(gea.table, "order", gea.not_above(),
                            additivity_program(gea).witness)


def separating_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b: a state with
    s(a) - s(b) = 1 or, failing that, s(b) - s(a) = 1.  The first order
    runs no LP when a ⊑ b, as whenever a <= b."""
    system = additivity_program(gea)
    n = gea.table.n
    later = [(1 << n) - (2 << a) for a in range(n)]  # the bits b > a, b < n
    return assign_witnesses(gea.table, "separate", later,
                            lambda a, b: system.witness(a, b) or system.witness(b, a))
