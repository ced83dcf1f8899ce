"""Generalized-state witnesses computed by exact linear programming.

A generalized state assigns a nonnegative rational to every element, is zero
at zero, and is additive over every defined sum.  States form a cone, so a
strict inequality s(a) > s(b) can always be normalized to s(a) - s(b) = 1;
that normalization is what makes each witness search a single feasibility LP.
A search builds its table's additivity program once, which factors the
additivity rows, each given by its nonzero entries, as they enter; each pair
LP extends it by its normalization row, so only that row is reduced.

The program holds the atom rows only.  An atom is a nonzero element that is
not a sum of two nonzero elements, and in a finite GEA the rows
s(p) + s(x) = s(p + x), with p an atom and x nonzero, span every additivity
row.  Take a defined i + j = k with i not an atom, and write i = p + i' with
p an atom below i; i' != 0, and i' < i by GE3.  GE2 makes i' + j defined,
with p + (i' + j) = k, so

    row(i, j) = row(p, i' + j) + row(i', j) - row(p, i').

Induction on the order settles row(i', j); GE1 covers an atom in the second
place, and GE4 keeps i' + j != 0.  So the row space, and with it the reduced
echelon form the LP works from, is that of one row per defined sum: O(n)
rows for a chain where there were O(n^2).  The LP rechecks its point only
against the rows it was given, so each new witness state is validated on
every defined sum before it takes a slot.

The searches take a CheckedGEA, the table and induced order that one axiom
scan produced, so they scan nothing themselves, and the atom rows rest on
the axioms that scan proved.  A state is stored as int numerators over one
positive denominator, in lowest terms: the LP point's denominators are
cleared once, and coverage, slot reuse and validation compare ints.
Fractions are made only for the public values view.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA
from .errors import InputError
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
    """The factored LP over one variable per nonzero element, with one
    additivity row s(p) + s(x) - s(p + x) = 0 per unordered pair {p, x} of
    an atom p and a nonzero x whose sum is defined, given as its two or three
    nonzero (variable, coefficient) pairs.

    The atoms are found in one pass over the rows: the nonzero elements
    that no sum of two nonzero elements produces.  These rows span every
    additivity row (see the module docstring), and no two are equal: a row
    is positive exactly at p and x, because p + x differs from both (GE3
    and GE5)."""
    table = gea.table
    var_of = _variables(table)
    z = table.zero
    produced = set()
    for x in var_of:
        row = table.rows[x]
        produced.update(row[:z], row[z + 1:])
    rows: list[Row] = []
    for p in var_of:
        if p in produced:
            continue
        row = table.rows[p]
        for x in var_of:
            k = row[x]
            # A pair of atoms enters once, from its lower atom.
            if k < 0 or (x < p and x not in produced):
                continue
            coeffs = {var_of[p]: 2} if x == p else {var_of[p]: 1, var_of[x]: 1}
            coeffs[var_of[k]] = -1
            rows.append((tuple(sorted(coeffs.items())), 0))
    return LinearProgram(len(var_of), rows)


def _variables(table: AlgebraTable) -> dict[int, int]:
    return {e: i for i, e in enumerate(x for x in range(table.n) if x != table.zero)}


def state_from_solution(table: AlgebraTable, x: Sequence[Fraction]) -> GeneralizedState:
    """The state of an LP point (one value per nonzero element, in index
    order), its denominators cleared once."""
    den = lcm(*(v.denominator for v in x))
    scaled = iter([v.numerator * (den // v.denominator) for v in x])
    return GeneralizedState(tuple(0 if element == table.zero else next(scaled)
                                  for element in range(table.n)), den)


class _Additivity:
    """The additivity program of one table, built and factored once.  Every
    witness LP of a search is that program plus one normalization row.

    A pair row that reduces to 0 = c proves s(a) = s(b) on every state, so
    the unordered pair is remembered and the other order fails with no LP."""

    def __init__(self, gea: CheckedGEA) -> None:
        self.table = gea.table
        self.var_of = _variables(gea.table)
        self.program = additivity_program(gea)
        self.equal: set[frozenset[int]] = set()

    def pair_program(self, lo: int, hi: int) -> LinearProgram:
        """The additivity program with s(lo) - s(hi) = 1; s(0) = 0 has no
        variable."""
        coeffs = sorted((self.var_of[element], w) for element, w in ((lo, 1), (hi, -1))
                        if element != self.table.zero)
        return self.program.extended([(tuple(coeffs), 1)])

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A generalized state with s(lo) - s(hi) = 1, or None."""
        pair = frozenset((lo, hi))
        if pair in self.equal:
            return None
        program = self.pair_program(lo, hi)
        solution = lp_feasible(program)
        if solution is None:
            if program.conflict is not None:
                self.equal.add(pair)
            return None
        return state_from_solution(self.table, solution)


def assign_witnesses(table: AlgebraTable, witnesses: StateWitnessSet,
                     pairs: Iterable[tuple[int, int]],
                     find: Callable[[int, int], Optional[GeneralizedState]]) -> StateWitnessSet:
    """Make sure each pair of elements of table, in turn, is covered by a
    state of the set.

    A pair is covered by a state with s(a) > s(b) for the order goal,
    s(a) != s(b) to separate.  For a pair that no state covers, find(a, b)
    is asked for a new state, which is validated on table, takes the next
    slot and is recorded in provenance under (a, b): it covers (a, b), so it
    equals no state in the set.  The LP rechecked it only against the atom
    rows, which imply, but are not, every additivity row.  A pair find
    cannot witness is a failure.
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
    system = _Additivity(gea)
    return assign_witnesses(gea.table, StateWitnessSet(goal="order"),
                            gea.order.pairs_not_leq(), system.witness)


def separating_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b: a state with
    s(a) - s(b) = 1 or, failing that, s(b) - s(a) = 1."""
    system = _Additivity(gea)
    n = gea.table.n
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n))
    return assign_witnesses(gea.table, StateWitnessSet(goal="separate"), pairs,
                            lambda a, b: system.witness(a, b) or system.witness(b, a))
