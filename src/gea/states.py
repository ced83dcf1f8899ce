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
element and every defined sum is.  A search builds C once, factored, and
each pair LP extends it by one row.  C is empty on chains, cubes, antichains
and down-sets of N^m; there the cone is the orthant v >= 0 and a pair runs
no LP: its state is vec(x)[j] / d_j for j the least positive column of
d = vec(a) - vec(b), the vertex the LP would return, and with no such j the
pair row is its own Farkas certificate, the one form of proof that
lp_feasible rechecks for each None it returns.  A state has one value per
element by construction, each vec(x)[j] / d_j >= 0 or a sum along the chain
of the LP's point, rechecked as nonnegative, and zero, neither an atom nor
in the chain, gets 0.  The LP rechecks its point only against its rows, so
after its walk a search checks its states on every defined sum in one
packed pass, which fails only on a fault in the program (AssertionError).
A search starts from no states and returns one immutable record of its
goal, its states, the pair that made each slot and the pairs that failed.

The searches take a CheckedGEA, the table, order and atoms that one axiom
scan produced, so they scan nothing themselves, and the atom program rests on
the axioms that scan proved.  A state is stored as int numerators over one
positive denominator, in lowest terms, into which _AtomProgram._lp reads
the LP's Fraction point.  Coverage is one int bit mask per element: want[a]
holds the b to cover at a (each b not above a for the order goal, each b > a
to separate), and a slot covers at a the b with s(b) < s(a), or
s(b) != s(a), read off one sort of its values.  A program is solved only for
the lowest bit of want[a] that no slot covers, so pairs reach it in
lexicographic order.  A pair fails with no solve when the state preorder ⊑
(s(a) <= s(b) on every state) already holds it: ⊑ starts as the induced
order, each failed pair adds itself, and ⊑ stays transitively closed
(see _AtomProgram).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence

from .algebra import CheckedGEA, first_nonadditive
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


class StateWitnessSet(namedtuple("StateWitnessSet", "goal states provenance failures")):
    """Finite witness set for goal ("order" or "separate"): provenance[slot]
    is the pair whose pair program produced states[slot], and failures
    lists the pairs no state can witness; the search succeeded iff it is
    empty."""

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
    s(x); each failed pair adds itself, closing ⊑ transitively, and
    witness solves no program for a pair that ⊑ holds.

    When C is empty, as on chains, cubes, antichains and down-sets of N^m,
    the state cone is the whole orthant v >= 0, and each pair program is
    its one pair row: _orthant reads its point off the signs of that row,
    with no LP (see _orthant for why it is lp_feasible's point)."""

    def __init__(self, atoms: Sequence[int], chain: list[tuple[int, int, int]],
                 vecs: list[tuple[int, ...]], rows: Iterable[Row],
                 above: Sequence[int]) -> None:
        super().__init__(len(atoms), rows)
        self.atoms, self.chain, self.vecs = atoms, chain, vecs
        self.below = list(above)

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A state with s(lo) - s(hi) = 1, or None: the point of the pair
        program C v = 0, (vec(lo) - vec(hi))·v = 1, v >= 0, read by
        _orthant when C is empty and by _lp otherwise.  Each settles the
        pair when it has no point."""
        if self.below[lo] >> hi & 1:
            return None
        row = _difference(self.vecs[lo], self.vecs[hi])
        return (self._lp if self.rows else self._orthant)(lo, hi, row)

    def _orthant(self, lo: int, hi: int, row: tuple[tuple[int, int], ...]
                 ) -> Optional[GeneralizedState]:
        """The pair program's point when C is empty, with no LP: for d =
        vec(lo) - vec(hi) and j its least positive column, the state s(x) =
        vec(x)[j] / d_j, or None when d has no positive entry.  This is
        lp_feasible's own answer.  Its echelon pivots at d's least nonzero
        column; if d is positive there the basis is feasible at once, and if
        d is negative there the row leaves and Bland's entering column is
        the least positive one.  Either way the basic point is e_j / d_j.
        With no positive entry the pair row itself, d <= 0 against rhs 1,
        with weight -1, is the Farkas certificate, and the sign test that
        found no positive entry is its check.  d = 0 is the conflict 0 = 1,
        whose certificate has yᵀA = 0 as well, so it settles both orders of
        the pair."""
        for j, d_j in row:
            if d_j > 0:
                return GeneralizedState(tuple(v[j] for v in self.vecs), d_j)
        self._settle(lo, hi)
        if not row:
            self._settle(hi, lo)
        return None

    def _lp(self, lo: int, hi: int, row: tuple[tuple[int, int], ...]
            ) -> Optional[GeneralizedState]:
        """The pair program's point from lp_feasible, over the atoms and
        then along the defining rows.  With no point, lp_feasible has
        rechecked a Farkas row, yᵀA >= 0 and yᵀb < 0, which settles the
        pair.  A pair row that reduces to 0 = c is one with yᵀA = 0, the
        program's conflict: it proves s(lo) = s(hi), so it settles both
        orders of the pair."""
        program = self.extended([(row, 1)])
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


def _search(gea: CheckedGEA, goal: str) -> StateWitnessSet:
    """The witness set for goal ("order" or "separate"), from no states, by
    the coverage walk of the module docstring; to separate, a pair a < b
    with no state for s(a) - s(b) = 1 asks for s(b) - s(a) = 1.
    AssertionError names the first sum that the packed pass finds broken."""
    table, program = gea.table, additivity_program(gea)
    n, order = table.n, goal == "order"
    todo = gea.not_above() if order else [(1 << n) - (2 << a) for a in range(n)]
    states, provenance, failures = [], [], []  # failures and provenance hold (a, b) pairs
    for a in range(n):
        while todo[a]:
            b = (todo[a] & -todo[a]).bit_length() - 1
            todo[a] ^= 1 << b
            state = program.witness(a, b)
            if state is None and not order:
                state = program.witness(b, a)
            if state is None:
                failures.append((a, b))
                continue
            provenance.append((a, b))
            states.append(state)
            todo = [t & ~c for t, c in zip(todo, _cover(state.nums, order))]
    bad = first_nonadditive(table, [s.nums for s in states])
    if bad is not None:
        raise AssertionError("witness state is not additive on "
                             f"{table.elements[bad[0]]}+{table.elements[bad[1]]}")
    return StateWitnessSet(goal, states, provenance, failures)


def order_determining_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair order witnesses for every (a, b) with a not below b.

    A witness already found for an earlier pair is reused when it also covers
    the current one, so the result stays small; pairs are scanned in index
    order, which makes the output deterministic.
    """
    return _search(gea, "order")


def separating_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b: a state with
    s(a) - s(b) = 1 or, failing that, s(b) - s(a) = 1.  The first order
    is not solved when a ⊑ b, as whenever a <= b."""
    return _search(gea, "separate")
