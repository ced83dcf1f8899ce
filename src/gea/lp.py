"""Exact rational feasibility solver for equality systems with sign bounds.

Decides whether {A x = b, x >= 0} has a solution, entirely in Fraction
arithmetic.  Every call starts with one exact elimination (`Echelon`) over
the rows.  It keeps the original rows of a maximal independent subset, in
their original order, and finds an inconsistent system (a row combination y
with yᵀA = 0 and yᵀb != 0) without any simplex.  Before "inconsistent" is
returned as None, y is rechecked against the original rows, just as a
feasible point is rechecked against every row.  Only the kept rows enter a
phase-one primal simplex with Bland's anti-cycling rule, so redundant rows
cost no artificial column.

Callers that solve many programs sharing their leading rows factor those
rows once and pass the factorization in; each call then reduces only the
rows that follow.  A brute-force basic-solution enumerator, built on the
same elimination, doubles as an independent oracle for small systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ContractError, InputError

Row = tuple[tuple[Fraction, ...], Fraction]


@dataclass(frozen=True)
class LinearProgram:
    """Equalities over nonnegative rational variables, stored exactly."""

    n_vars: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        for coeffs, _ in self.rows:
            if len(coeffs) != self.n_vars:
                raise InputError("coefficient row length does not match variable count")

    @staticmethod
    def build(n_vars: int, rows: Iterable[tuple[Sequence, object]]) -> "LinearProgram":
        frozen = tuple((tuple(Fraction(c) for c in coeffs), Fraction(rhs))
                       for coeffs, rhs in rows)
        return LinearProgram(n_vars, frozen)

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.n_vars or any(v < 0 for v in x):
            return False
        return all(sum(c * v for c, v in zip(coeffs, x) if c) == rhs
                   for coeffs, rhs in self.rows)

    def refuted_by(self, y: dict[int, Fraction]) -> bool:
        """True iff the row combination y (row index -> weight) reads
        0 = c with c != 0, which proves the equalities have no solution."""
        total = [Fraction(0)] * (self.n_vars + 1)
        for i, w in y.items():
            coeffs, rhs = self.rows[i]
            for j, c in enumerate(coeffs + (rhs,)):
                if c:
                    total[j] += w * c
        return not any(total[:-1]) and total[-1] != 0


def _support(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    return [(j, p) for j, p in enumerate(row) if p]


def _sub(v: list[Fraction], f: Fraction, support: list[tuple[int, Fraction]]) -> list[Fraction]:
    """v - f * p for p given by its nonzero entries: most entries are zero,
    and each multiply by a zero Fraction still costs a gcd."""
    out = v[:]
    for j, p in support:
        out[j] -= f * p
    return out


def _combine(y: dict[int, Fraction], f: Fraction, z: dict[int, Fraction]) -> None:
    """y -= f * z on row-combination dicts, in place."""
    for i, w in z.items():
        y[i] = y.get(i, 0) - f * w


class Echelon:
    """Reduced row echelon form of a row sequence, built one row at a time.

    kept holds the indices of the rows that are independent of the rows
    before them: a maximal independent subset, in original order.  Each
    echelon row is coefficients plus rhs, 1 at its pivot column and 0 at
    every other pivot column, stored with the combination of original rows
    that produces it.  A row that reduces to 0 = c with c != 0 stops the
    elimination and leaves that combination in conflict.

    Echelon rows are replaced, never changed in place, so `extended` can share
    them with the factorization it starts from.
    """

    def __init__(self, n_cols: int) -> None:
        self.n_cols = n_cols
        self.source: tuple[Row, ...] = ()
        self.kept: list[int] = []
        self.pivots: list[int] = []
        self.rows: list[list[Fraction]] = []
        self.combos: list[dict[int, Fraction]] = []
        self.conflict: Optional[dict[int, Fraction]] = None

    @staticmethod
    def of(rows: Sequence[Row], n_cols: int) -> "Echelon":
        return Echelon(n_cols).extended(rows)

    @property
    def rank(self) -> int:
        return len(self.kept)

    def extended(self, rows: Sequence[Row]) -> "Echelon":
        """A new factorization of self.source followed by rows."""
        out = Echelon(self.n_cols)
        out.kept, out.pivots = self.kept[:], self.pivots[:]
        out.rows, out.combos = self.rows[:], self.combos[:]
        out.conflict = self.conflict
        out.source = self.source + tuple(rows)
        for index in range(len(self.source), len(out.source)):
            if out.conflict is not None:
                break
            out._add(index)
        return out

    def _add(self, index: int) -> None:
        coeffs, rhs = self.source[index]
        v = list(coeffs) + [rhs]
        used = [(k, v[p]) for k, p in enumerate(self.pivots) if v[p]]
        for k, f in used:
            v = _sub(v, f, _support(self.rows[k]))
        col = next((j for j in range(self.n_cols) if v[j]), None)
        if col is None and not v[-1]:
            return  # a combination of the rows kept so far
        combo = {index: Fraction(1)}
        for k, f in used:
            _combine(combo, f, self.combos[k])
        if col is None:
            self.conflict = {i: w for i, w in combo.items() if w}
            return
        lead = v[col]
        v = [a / lead if a else a for a in v]
        combo = {i: w / lead for i, w in combo.items() if w}
        support = _support(v)
        for k, row in enumerate(self.rows):
            f = row[col]
            if f:
                self.rows[k] = _sub(row, f, support)
                update = dict(self.combos[k])
                _combine(update, f, combo)
                self.combos[k] = update
        self.kept.append(index)
        self.pivots.append(col)
        self.rows.append(v)
        self.combos.append(combo)


def lp_feasible(program: LinearProgram,
                factored: Optional[Echelon] = None) -> Optional[list[Fraction]]:
    """Return an exact feasible point of {rows hold, x >= 0}, or None.

    factored, when given, must be the factorization of the program's leading
    rows; only the rows after them are reduced here.  An inconsistent system
    returns None after its row combination is rechecked.  Otherwise
    phase-one simplex runs on the kept rows: artificial variables start basic
    and their sum is driven to zero.  Bland's rule (lowest eligible index for
    both the entering column and, on ratio ties, the leaving basic variable)
    guarantees termination on degenerate tableaus.
    """
    n = program.n_vars
    if factored is None:
        factored = Echelon(n)
    lead = len(factored.source)
    if factored.n_cols != n or program.rows[:lead] != factored.source:
        raise ContractError("factorization does not match the program's leading rows")
    echelon = factored.extended(program.rows[lead:])
    if echelon.conflict is not None:
        assert program.refuted_by(echelon.conflict)
        return None
    m = echelon.rank
    if m == 0:
        return [Fraction(0)] * n

    # Tableau rows: n structural columns, m artificial columns, then the rhs.
    tableau: list[list[Fraction]] = []
    for i, index in enumerate(echelon.kept):
        coeffs, rhs = program.rows[index]
        sign = -1 if rhs < 0 else 1
        row = [sign * c for c in coeffs]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(sign * rhs)
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # Reduced-cost row for minimizing the artificial sum; its rhs holds the
    # negated objective value.
    width = n + m + 1
    cost = [Fraction(0)] * width
    for j in range(width):
        if n <= j < n + m:
            continue
        cost[j] = -sum(tableau[i][j] for i in range(m))

    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff <= 0:
                continue
            ratio = tableau[i][-1] / coeff
            if best_ratio is None or ratio < best_ratio or \
                    (ratio == best_ratio and basis[i] < basis[pivot_row]):
                best_ratio = ratio
                pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-one objective cannot be unbounded")
        _pivot(tableau, cost, basis, pivot_row, entering)

    if -cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    assert program.satisfied_by(x)
    return x


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction],
           basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot if v else v for v in tableau[row]]
    support = _support(tableau[row])
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = _sub(other, other[col], support)
    if cost[col]:
        cost[:] = _sub(cost, cost[col], support)
    basis[row] = col


def basic_solution_feasible(program: LinearProgram) -> Optional[list[Fraction]]:
    """Independent feasibility oracle: enumerate basic solutions.

    A feasible region of this shape is nonempty iff some choice of rank-many
    linearly independent columns solves the system with nonnegative values.
    Exponential in the variable count; intended for small cross-checks only.
    """
    n = program.n_vars
    full = Echelon.of(program.rows, n)
    if full.conflict is not None:
        return None
    if full.rank == 0:
        return [Fraction(0)] * n
    for columns in itertools.combinations(range(n), full.rank):
        # These columns carry a basic solution iff each one becomes a pivot
        # and the restricted system stays consistent; it is then unique.
        restricted = Echelon.of([(tuple(coeffs[c] for c in columns), rhs)
                                 for coeffs, rhs in program.rows], len(columns))
        if restricted.conflict is not None or restricted.rank < len(columns):
            continue
        x = [Fraction(0)] * n
        for pivot, row in zip(restricted.pivots, restricted.rows):
            x[columns[pivot]] = row[-1]
        if any(v < 0 for v in x):
            continue
        assert program.satisfied_by(x)
        return x
    return None
