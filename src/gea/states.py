"""Generalized-state witnesses computed by exact linear programming.

A generalized state assigns a nonnegative rational to every element, is zero
at zero, and is additive over every defined sum.  States form a cone, so a
strict inequality s(a) > s(b) can always be normalized to s(a) - s(b) = 1;
that normalization is what makes each witness search a single feasibility LP.
A search builds and factors the additivity rows of its table once; each pair
LP then adds and reduces only its normalization row.

The searches take a CheckedGEA, the table and induced order that one axiom
scan produced, so they scan nothing themselves.  A state is stored as int
numerators over one positive denominator, in lowest terms: the LP point's
denominators are cleared once, and coverage, slot reuse and validation
compare ints.  Fractions are made only for the public values view.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .algebra import AlgebraTable, CheckedGEA
from .errors import InputError
from .lp import Echelon, LinearProgram, Rational, Row, lp_feasible


@dataclass(frozen=True)
class GeneralizedState:
    """Exact valuation on the elements of one table: s(i) = nums[i] / den.

    den is positive and the vector is kept in lowest terms, so two states are
    equal iff they agree as rational vectors."""

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise InputError("state denominator must be positive")
        common = gcd(self.den, *self.nums)
        object.__setattr__(self, "nums", tuple(p // common for p in self.nums))
        object.__setattr__(self, "den", self.den // common)

    @classmethod
    def of(cls, values: Sequence[Rational | str]) -> "GeneralizedState":
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
        for i, j, k in table.defined_sums():
            if nums[i] + nums[j] != nums[k]:
                raise InputError(
                    f"state is not additive on {table.elements[i]}+{table.elements[j]}")


@dataclass
class StateWitnessSet:
    """Finite witness set with per-pair provenance.

    provenance maps each handled element pair to the slot of the state that
    witnesses it; failures lists the pairs for which no witness exists.  The
    search succeeded iff failures is empty.
    """

    goal: str  # "separate" or "order"
    states: list[GeneralizedState] = field(default_factory=list)
    provenance: dict[tuple[int, int], int] = field(default_factory=dict)
    failures: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def additivity_program(table: AlgebraTable,
                       extra_rows: Sequence[tuple[dict[int, Rational], Rational]] = ()) -> LinearProgram:
    """LP over one variable per nonzero element: one additivity row per
    defined sum (deduplicated, int coefficients), plus caller-supplied rows
    keyed by element."""
    var_of = _variables(table)
    n_vars = len(var_of)
    rows: list[Row] = []
    seen = set()
    for i, j, k in table.defined_sums():
        coeffs = [0] * n_vars
        for element, delta in ((i, 1), (j, 1), (k, -1)):
            if element != table.zero:
                coeffs[var_of[element]] += delta
        key = tuple(coeffs)
        if any(key) and key not in seen:
            seen.add(key)
            rows.append((key, 0))
    rows.extend(_extra_row(var_of, table.zero, weights, rhs) for weights, rhs in extra_rows)
    return LinearProgram(n_vars, tuple(rows))


def _variables(table: AlgebraTable) -> dict[int, int]:
    return {e: i for i, e in enumerate(x for x in range(table.n) if x != table.zero)}


def _exact(value) -> Rational:
    return value if isinstance(value, int) else Fraction(value)


def _extra_row(var_of: dict[int, int], zero: int, weights: dict[int, Rational],
               rhs: Rational) -> Row:
    coeffs: list[Rational] = [0] * len(var_of)
    for element, w in weights.items():
        if element == zero:
            continue  # s(0) = 0, the variable is eliminated
        coeffs[var_of[element]] += _exact(w)
    return tuple(coeffs), _exact(rhs)


def state_from_solution(table: AlgebraTable, x: Sequence[Fraction]) -> GeneralizedState:
    """The state of an LP point (one value per nonzero element, in index
    order), its denominators cleared once."""
    den = lcm(*(v.denominator for v in x))
    scaled = iter([v.numerator * (den // v.denominator) for v in x])
    return GeneralizedState(tuple(0 if element == table.zero else next(scaled)
                                  for element in range(table.n)), den)


class _Additivity:
    """The additivity rows of one table, built and factored once.  Every
    witness LP of a search is these rows plus one normalization row."""

    def __init__(self, table: AlgebraTable) -> None:
        self.table = table
        self.var_of = _variables(table)
        self.program = additivity_program(table)
        self.echelon = Echelon.of(self.program.rows, self.program.n_vars)

    def witness(self, lo: int, hi: int) -> Optional[GeneralizedState]:
        """A generalized state with s(lo) - s(hi) = 1, or None."""
        row = _extra_row(self.var_of, self.table.zero, {lo: 1, hi: -1}, 1)
        program = LinearProgram(self.program.n_vars, self.program.rows + (row,))
        solution = lp_feasible(program, self.echelon)
        if solution is None:
            return None
        state = state_from_solution(self.table, solution)
        state.validate(self.table)
        return state


def _record(witnesses: StateWitnessSet, pair: tuple[int, int],
            state: GeneralizedState) -> None:
    for slot, existing in enumerate(witnesses.states):
        if existing == state:
            witnesses.provenance[pair] = slot
            return
    witnesses.states.append(state)
    witnesses.provenance[pair] = len(witnesses.states) - 1


def assign_witnesses(witnesses: StateWitnessSet, pairs: Iterable[tuple[int, int]],
                     find: Callable[[int, int], Optional[GeneralizedState]]) -> StateWitnessSet:
    """Give each pair, in turn, the slot of a state that witnesses it.

    The first state already in the set that covers (a, b) is reused: one
    with s(a) > s(b) for the order goal, s(a) != s(b) to separate.  Otherwise
    find(a, b) is asked for a new state, which takes the slot of an equal
    state when there is one; a pair find cannot witness is a failure.
    """
    covers = operator.gt if witnesses.goal == "order" else operator.ne
    for a, b in pairs:
        covering = next((slot for slot, s in enumerate(witnesses.states)
                         if covers(s.nums[a], s.nums[b])), None)
        if covering is not None:
            witnesses.provenance[(a, b)] = covering
            continue
        state = find(a, b)
        if state is None:
            witnesses.failures.append((a, b))
        else:
            _record(witnesses, (a, b), state)
    return witnesses


def order_determining_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair order witnesses for every (a, b) with a not below b.

    A witness already found for an earlier pair is reused when it also covers
    the current one, so the result stays small; pairs are scanned in index
    order, which makes the output deterministic.
    """
    system = _Additivity(gea.table)
    return assign_witnesses(StateWitnessSet(goal="order"), gea.order.pairs_not_leq(),
                            system.witness)


def separating_set(gea: CheckedGEA) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b: a state with
    s(a) - s(b) = 1 or, failing that, s(b) - s(a) = 1."""
    system = _Additivity(gea.table)
    n = gea.table.n
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n))
    return assign_witnesses(StateWitnessSet(goal="separate"), pairs,
                            lambda a, b: system.witness(a, b) or system.witness(b, a))
