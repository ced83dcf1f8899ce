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
each pair LP extends it by one row.  When C is empty the cone is the
orthant v >= 0, and each pair that ⊑ does not hold has a state, with no LP:
 * In any table, if vec(y)[p] >= 1 for an atom p, then y = p or y has an
   atom row p + y' = y.  Along the order: with q + y'' = y the defining row
   and q != p, vec(y'')[p] >= 1, and y'' = p or y'' = p + z gives
   y = p + (q + z) by GE2 and GE1, where q + z != 0 by GE4.
 * With C empty, vec(x) <= vec(y) implies x <= y.  Along the order: with
   p + x' = x the defining row, y = p + y' (y = p would make x' zero), and
   C empty gives vec(y') = vec(y) - e_p >= vec(x'), so x' + t = y' and GE2
   gives x + t = y.
So vec maps such a table (a chain, a cube, an antichain) onto a down-set
of N^m, and a pair (a, b) that ⊑ does not hold has a least column j with
d_j = vec(a)[j] - vec(b)[j] > 0: its state, the LP's vertex, is
vec(x)[j] / d_j.  Only an LP refutes a pair, with a Farkas row that
lp_feasible rechecks.  A state has one value per
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
the LP's Fraction point.  Coverage is one int bit mask per element: todo[a]
holds the b still to cover at a (each b not above a for the order goal, each
b > a to separate), and each new slot clears in place the b with s(b) < s(a),
or s(b) != s(a).  For the order goal that costs one sort of its values and a
walk up it that clears only at the elements above the least level; to
separate, no sort: one pass groups the elements by value, and one over every
element keeps in todo[a] only a's own level.
A program is solved only for the lowest bit of todo[a], so pairs reach it in
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
        if common > 1:
            nums, den = [p // common for p in nums], den // common
        return super().__new__(cls, tuple(nums), den)


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

    When C is empty the state cone is the orthant v >= 0, and vec(x) <=
    vec(y) exactly when x <= y (module docstring), so ⊑ holds from the start
    every pair with no state, and _orthant reads each other pair's point off
    its two vectors, with no LP."""

    def __init__(self, atoms: Sequence[int], chain: list[tuple[int, int, int]],
                 vecs: list[tuple[int, ...]], rows: Iterable[Row],
                 above: Sequence[int]) -> None:
        super().__init__(len(atoms), rows)
        self.atoms, self.chain, self.vecs = atoms, chain, vecs
        self.below = list(above)

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A state with s(lo) - s(hi) = 1, or None: the point of the pair
        program C v = 0, (vec(lo) - vec(hi))·v = 1, v >= 0, read by
        _orthant when C is empty and by _lp otherwise.  Only _lp can find
        no point, and it settles the pair."""
        if self.below[lo] >> hi & 1:
            return None
        return (self._lp if self.rows else self._orthant)(lo, hi)

    def _orthant(self, lo: int, hi: int) -> GeneralizedState:
        """The pair program's point when C is empty, with no LP: for j the
        least column with vec(lo)[j] > vec(hi)[j] and d_j their difference,
        the state s(x) = vec(x)[j] / d_j.  Such a j exists: with none,
        vec(lo) <= vec(hi) gives lo <= hi (module docstring), which ⊑ holds
        from the start.  This is lp_feasible's own answer.  Its echelon
        pivots at d = vec(lo) - vec(hi)'s least nonzero column; if d is
        positive there the basis is feasible at once, and if d is negative
        there the row leaves and Bland's entering column is the least
        positive one.  Either way the basic point is e_j / d_j."""
        vecs = self.vecs
        j, d_j = next((j, x - y) for j, (x, y) in enumerate(zip(vecs[lo], vecs[hi])) if x > y)
        return GeneralizedState([v[j] for v in vecs], d_j)

    def _lp(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """The pair program's point from lp_feasible, over the atoms and
        then along the defining rows.  With no point, lp_feasible has
        rechecked a Farkas row, yᵀA >= 0 and yᵀb < 0, which settles the
        pair.  A pair row that reduces to 0 = c is one with yᵀA = 0, the
        program's conflict: it proves s(lo) = s(hi), so it settles both
        orders of the pair."""
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
        return GeneralizedState(nums, den)

    def _settle(self, lo: int, hi: int) -> None:
        """Add lo ⊑ hi: every x ⊑ lo gets every y with hi ⊑ y, which keeps ⊑
        transitive."""
        bit, up = 1 << lo, self.below[hi]
        self.below = [mask | up if mask & bit else mask for mask in self.below]


def _clear_covered(todo: list[int], values: Sequence[int], order: bool) -> None:
    """Clear from each todo[a], in place, the b that a state with these
    values covers at a.  For the order goal, s(b) < s(a): a walk up one sort
    of the elements clears every lower level from each todo[a] it passes.
    To separate, s(b) != s(a): todo[a] keeps only a's own level."""
    if not order:
        level: dict[int, int] = {}  # value -> mask of the elements that take it
        for b, value in enumerate(values):
            level[value] = level.get(value, 0) | 1 << b
        for a, value in enumerate(values):
            todo[a] &= level[value]
        return
    last, below, seen = None, 0, 0
    for a in sorted(range(len(values)), key=values.__getitem__):
        value = values[a]
        if value != last:
            last, below = value, seen
        if below:
            todo[a] &= ~below
        seen |= 1 << a


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
            _clear_covered(todo, state.nums, order)
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
