"""Generalized-state witnesses computed by exact linear programming.

A generalized state assigns a nonnegative rational to every element, is zero
at zero, and is additive over every defined sum.  States form a cone, so a
strict inequality s(a) > s(b) can always be normalized to s(a) - s(b) = 1;
that normalization is what makes each witness search a single feasibility LP.

The LP runs over the atoms alone: the nonzero elements that are not a sum of
two nonzero elements.  In a GEA, u < u + v strictly for u, v nonzero, in an
induced order that is a partial order, so the edges u -> u + v, v -> u + v
have no cycle and Kahn's algorithm orders the elements.  A non-atom x has an
atom row p + x' = x (p an atom, x' nonzero): if x = u + v with u = p + u',
GE2 gives x = p + (u' + v), and GE4 keeps u' + v != 0.  Its first one (least
p, then least x') defines vec(x) = e_p + vec(x'), with vec(0) = 0, and C
holds vec(x) - e_q - vec(y) for each other atom row q + y = x.
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
row.  The LP rechecks its point only against those rows, so each new witness
state is validated on every defined sum before it takes a slot.

The searches take a CheckedGEA, the table and induced order that one axiom
scan produced, so they scan nothing themselves, and the atom program rests on
the axioms that scan proved.  A state is stored as int numerators over one
positive denominator, in lowest terms: the LP point's denominators are
cleared once, and coverage, slot reuse and validation compare ints.
Fractions are made only for the public values view.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA
from .errors import ContractError, InputError
from .lp import LinearProgram, Row, lp_feasible


class GeneralizedState(namedtuple("GeneralizedState", "nums den")):
    """Exact valuation on the elements of one table: s(i) = nums[i] / den.

    den is positive and the vector is kept in lowest terms, so two states are
    equal iff they agree as rational vectors."""

    __slots__ = ()

    def __new__(cls, nums: tuple[int, ...], den: int = 1) -> GeneralizedState:
        if den <= 0:
            raise InputError("state denominator must be positive")
        common = gcd(den, *nums)
        return super().__new__(cls, tuple(p // common for p in nums), den // common)

    @classmethod
    def of(cls, values: Sequence[int | Fraction | str]) -> "GeneralizedState":
        """The state with these rational values."""
        fracs = [Fraction(v) for v in values]
        den = lcm(*(v.denominator for v in fracs))
        return cls(tuple(v.numerator * (den // v.denominator) for v in fracs), den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions (a read-only view)."""
        return tuple(Fraction(p, self.den) for p in self.nums)

    def validate(self, table: AlgebraTable) -> None:
        """Raise InputError unless this is a generalized state on the table."""
        nums = self.nums
        if len(nums) != table.n:
            raise InputError("state length does not match element count")
        if any(p < 0 for p in nums):
            raise InputError("state values must be nonnegative")
        if nums[table.zero] != 0:
            raise InputError("state must vanish at zero")
        for (i, j), k in table.sums.items():
            if nums[i] + nums[j] != nums[k]:
                raise InputError(
                    f"state is not additive on {table.elements[i]}+{table.elements[j]}")


class StateWitnessSet:
    """Finite witness set with the pair that made each state.

    provenance maps the pair whose LP produced a state to that state's slot;
    states given up front have no entry, and which state covers any other
    pair is recomputed from the states.  failures lists the pairs for which
    no witness exists.  The search succeeded iff failures is empty.
    """

    def __init__(self, goal: str, states: Optional[list[GeneralizedState]] = None,
                 provenance: Optional[dict[tuple[int, int], int]] = None,
                 failures: Optional[list[tuple[int, int]]] = None) -> None:
        self.goal = goal  # "separate" or "order"
        self.states = [] if states is None else states
        self.provenance = {} if provenance is None else provenance
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def additivity_program(gea: CheckedGEA) -> LinearProgram:
    """The atom program of one table, built and factored once: C v = 0 over
    one variable per atom, in index order, each distinct row of C once.
    ContractError when Kahn's order misses an element: the sums of nonzero
    elements then form a cycle, which no table that passed the scan has."""
    table, z = gea.table, gea.table.zero
    sums_of: list[list[int]] = [[] for _ in range(table.n)]  # u -> u + v
    indegree = [0] * table.n
    for (u, v), k in table.sums.items():
        if u != z and v != z:
            sums_of[u].append(k)
            indegree[k] += 1
    atoms = [x for x in range(table.n) if x != z and not indegree[x]]
    order = atoms[:]
    for u in order:  # Kahn's algorithm: order grows as it is walked
        for k in sums_of[u]:
            indegree[k] -= 1
            if not indegree[k]:
                order.append(k)
    if len(order) != table.n - 1:
        raise ContractError("the sums of nonzero elements form a cycle")
    into: list[list[tuple[int, int]]] = [[] for _ in range(table.n)]
    for p in atoms:  # into[k]: the atom rows p + x = k, by p, then x
        for x, k in enumerate(table.rows[p]):
            if x != z and k >= 0:
                into[k].append((p, x))
    vecs = {z: Counter()}
    vecs.update((p, Counter({c: 1})) for c, p in enumerate(atoms))
    chain, rows = [], {}  # rows: C as an ordered set
    for x in order[len(atoms):]:
        (p, rest), *others = into[x]
        vecs[x] = vecs[p] + vecs[rest]
        chain.append((x, p, rest))
        for q, y in others:
            rows[_difference(vecs[x], vecs[q] + vecs[y])] = 0
    rows.pop((), None)
    return _AtomProgram(atoms, chain, vecs, rows.items())


def _difference(a: Counter, b: Counter) -> tuple[tuple[int, int], ...]:
    """The nonzero entries of a - b as sparse row pairs."""
    return tuple(sorted((j, a[j] - b[j]) for j in a.keys() | b.keys() if a[j] != b[j]))


class _AtomProgram(LinearProgram):
    """C v = 0, where atoms[c] is the atom of column c, vecs[x] is vec(x),
    and chain holds each non-atom x as (x, p, x') for its defining row, in
    topological order.  A pair row that reduces to 0 = c proves s(a) = s(b)
    on every state, so the other order of the pair fails with no LP."""

    def __init__(self, atoms: list[int], chain: list[tuple[int, int, int]],
                 vecs: dict[int, Counter], rows: Iterable[Row]) -> None:
        super().__init__(len(atoms), rows)
        self.atoms, self.chain, self.vecs = atoms, chain, vecs
        self.equal: set[frozenset[int]] = set()

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A state with s(lo) - s(hi) = 1, from the LP point over the atoms
        and the defining rows, or None.  The pair row (vec(lo) - vec(hi))·v
        = 1 reads 0 = 1 when vec(lo) = vec(hi)."""
        pair = frozenset((lo, hi))
        if pair in self.equal:
            return None
        program = self.extended([(_difference(self.vecs[lo], self.vecs[hi]), 1)])
        v = lp_feasible(program)
        if v is None:
            if program.conflict is not None:
                self.equal.add(pair)
            return None
        den = lcm(*(value.denominator for value in v))
        nums = [0] * len(self.vecs)
        for p, value in zip(self.atoms, v):
            nums[p] = value.numerator * (den // value.denominator)
        for x, p, rest in self.chain:
            nums[x] = nums[p] + nums[rest]
        return GeneralizedState(tuple(nums), den)


def assign_witnesses(table: AlgebraTable, witnesses: StateWitnessSet,
                     pairs: Iterable[tuple[int, int]],
                     find: Callable[[int, int], Optional[GeneralizedState]]) -> StateWitnessSet:
    """Make sure each pair of elements of table, in turn, is covered by a
    state of the set.

    A pair is covered by a state with s(a) > s(b) for the order goal,
    s(a) != s(b) to separate.  For a pair that no state covers, find(a, b)
    is asked for a new state, which is validated on table, takes the next
    slot and is recorded in provenance under (a, b): it covers (a, b), so it
    equals no state in the set.  The LP rechecked it only against the rows
    of the atom program, not every defined sum.  A pair find cannot witness
    is a failure.
    """
    covers = operator.gt if witnesses.goal == "order" else operator.ne
    slots = [s.nums for s in witnesses.states]
    for a, b in pairs:
        if any(covers(nums[a], nums[b]) for nums in slots):
            continue
        state = find(a, b)
        if state is None:
            witnesses.failures.append((a, b))
        else:
            state.validate(table)
            witnesses.provenance[(a, b)] = len(witnesses.states)
            witnesses.states.append(state)
            slots.append(state.nums)
    return witnesses


def order_determining_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair order witnesses for every (a, b) with a not below b.

    A witness already found for an earlier pair is reused when it also covers
    the current one, so the result stays small; pairs are scanned in index
    order, which makes the output deterministic.
    """
    return assign_witnesses(gea.table, StateWitnessSet(goal="order"),
                            gea.order.pairs_not_leq(), additivity_program(gea).witness)


def separating_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b: a state with
    s(a) - s(b) = 1 or, failing that, s(b) - s(a) = 1."""
    system = additivity_program(gea)
    n = gea.table.n
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n))
    return assign_witnesses(gea.table, StateWitnessSet(goal="separate"), pairs,
                            lambda a, b: system.witness(a, b) or system.witness(b, a))
