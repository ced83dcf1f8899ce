"""Generalized-state witnesses computed by exact linear programming.

A generalized state assigns a nonnegative rational to every element, is zero
at zero, and is additive over every defined sum.  States form a cone, so a
strict inequality s(a) > s(b) can always be normalized to s(a) - s(b) = 1;
that normalization is what makes each witness search a single feasibility LP.
A search builds and factors the additivity rows of its table once; each pair
LP then adds and reduces only its normalization row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgebraTable, induced_order, require_gea
from .errors import ContractError, InputError
from .lp import Echelon, LinearProgram, lp_feasible


@dataclass(frozen=True)
class GeneralizedState:
    """Exact nonnegative valuation on the elements of one table."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __call__(self, i: int) -> Fraction:
        return self.values[i]

    def validate(self, table: AlgebraTable) -> None:
        """Raise InputError unless this is a generalized state on the table."""
        if len(self.values) != table.n:
            raise InputError("state length does not match element count")
        if any(v < 0 for v in self.values):
            raise InputError("state values must be nonnegative")
        if self.values[table.zero] != 0:
            raise InputError("state must vanish at zero")
        for i, j, k in table.defined_sums():
            if self.values[i] + self.values[j] != self.values[k]:
                raise InputError(
                    f"state is not additive on {table.elements[i]}+{table.elements[j]}")

    def scaled(self, q: Fraction) -> "GeneralizedState":
        if q < 0:
            raise InputError("states are closed under nonnegative scaling only")
        return GeneralizedState(tuple(Fraction(q) * v for v in self.values))


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

    def value_vector(self, element: int) -> tuple[Fraction, ...]:
        return tuple(s.values[element] for s in self.states)


def additivity_program(table: AlgebraTable,
                       extra_rows: Sequence[tuple[dict[int, Fraction], Fraction]] = ()) -> LinearProgram:
    """LP over one variable per nonzero element: one additivity row per
    defined sum (deduplicated), plus caller-supplied rows keyed by element."""
    var_of = _variables(table)
    n_vars = len(var_of)
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()
    for i, j, k in table.defined_sums():
        coeffs = [Fraction(0)] * n_vars
        for element, delta in ((i, 1), (j, 1), (k, -1)):
            if element != table.zero:
                coeffs[var_of[element]] += delta
        key = tuple(coeffs)
        if any(key) and key not in seen:
            seen.add(key)
            rows.append((key, Fraction(0)))
    rows.extend(_extra_row(var_of, table.zero, weights, rhs) for weights, rhs in extra_rows)
    return LinearProgram(n_vars, tuple(rows))


def _variables(table: AlgebraTable) -> dict[int, int]:
    return {e: i for i, e in enumerate(x for x in range(table.n) if x != table.zero)}


def _extra_row(var_of: dict[int, int], zero: int, weights: dict[int, Fraction],
               rhs: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    coeffs = [Fraction(0)] * len(var_of)
    for element, w in weights.items():
        if element == zero:
            continue  # s(0) = 0, the variable is eliminated
        coeffs[var_of[element]] += Fraction(w)
    return tuple(coeffs), Fraction(rhs)


def state_from_solution(table: AlgebraTable, x: Sequence[Fraction]) -> GeneralizedState:
    values = []
    cursor = iter(x)
    for element in range(table.n):
        values.append(Fraction(0) if element == table.zero else next(cursor))
    return GeneralizedState(tuple(values))


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
        row = _extra_row(self.var_of, self.table.zero,
                         {lo: Fraction(1), hi: Fraction(-1)}, Fraction(1))
        program = LinearProgram(self.program.n_vars, self.program.rows + (row,))
        solution = lp_feasible(program, self.echelon)
        if solution is None:
            return None
        state = state_from_solution(self.table, solution)
        state.validate(self.table)
        return state


def find_order_witness(a: int, b: int, table: AlgebraTable) -> Optional[GeneralizedState]:
    """A generalized state with s(a) - s(b) = 1, or None iff none has
    s(a) > s(b).  Calling with a <= b is a contract error: additivity forces
    s(a) <= s(b) there, so no witness can exist."""
    require_gea(table)
    if induced_order(table, checked=True).leq(a, b):
        raise ContractError(
            f"{table.elements[a]} <= {table.elements[b]}: order witness impossible")
    return _Additivity(table).witness(a, b)


def find_separating_state(a: int, b: int, table: AlgebraTable) -> Optional[GeneralizedState]:
    """A generalized state with s(a) != s(b): tries s(a) - s(b) = 1, then the
    reverse normalization.  None means every generalized state agrees on the
    pair."""
    if a == b:
        raise ContractError("separation needs two distinct elements")
    require_gea(table)
    return _separating_state(_Additivity(table), a, b)


def _separating_state(system: _Additivity, a: int, b: int) -> Optional[GeneralizedState]:
    for lo, hi in ((a, b), (b, a)):
        witness = system.witness(lo, hi)
        if witness is not None:
            return witness
    return None


def _record(witnesses: StateWitnessSet, pair: tuple[int, int],
            state: GeneralizedState) -> None:
    for slot, existing in enumerate(witnesses.states):
        if existing.values == state.values:
            witnesses.provenance[pair] = slot
            return
    witnesses.states.append(state)
    witnesses.provenance[pair] = len(witnesses.states) - 1


def order_determining_set(table: AlgebraTable) -> StateWitnessSet:
    """Per-pair order witnesses for every (a, b) with a not below b.

    A witness already found for an earlier pair is reused when it also covers
    the current one, so the result stays small; pairs are scanned in index
    order, which makes the output deterministic.
    """
    require_gea(table)
    order = induced_order(table, checked=True)
    system = _Additivity(table)
    witnesses = StateWitnessSet(goal="order")
    for a, b in order.pairs_not_leq():
        covering = next((slot for slot, s in enumerate(witnesses.states)
                         if s.values[a] > s.values[b]), None)
        if covering is not None:
            witnesses.provenance[(a, b)] = covering
            continue
        state = system.witness(a, b)
        if state is None:
            witnesses.failures.append((a, b))
        else:
            _record(witnesses, (a, b), state)
    return witnesses


def separating_set(table: AlgebraTable) -> StateWitnessSet:
    """Per-pair separating witnesses over unordered pairs a < b."""
    require_gea(table)
    system = _Additivity(table)
    witnesses = StateWitnessSet(goal="separate")
    for a in range(table.n):
        for b in range(a + 1, table.n):
            covering = next((slot for slot, s in enumerate(witnesses.states)
                             if s.values[a] != s.values[b]), None)
            if covering is not None:
                witnesses.provenance[(a, b)] = covering
                continue
            state = _separating_state(system, a, b)
            if state is None:
                witnesses.failures.append((a, b))
            else:
                _record(witnesses, (a, b), state)
    return witnesses


def normalize_state(g: GeneralizedState, table: AlgebraTable) -> GeneralizedState:
    """Rescale a generalized state to value 1 at the unit."""
    if table.unit is None:
        raise ContractError("normalization needs a unit element")
    total = g.values[table.unit]
    if total == 0:
        raise InputError("state is trivial on the unit; cannot normalize")
    return g.scaled(Fraction(1, 1) / total)


def bound_constant(a: int, witnesses: StateWitnessSet) -> Fraction:
    """Least bound c_a = max over the witness set of s(a); any finite set of
    generalized states is bounded."""
    if not witnesses.states:
        raise InputError("bound over an empty witness set is undefined")
    return max(s.values[a] for s in witnesses.states)
