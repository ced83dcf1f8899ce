"""Exact rational feasibility solver for equality systems with sign bounds.

Decides whether {A x = b, x >= 0} has a solution over the rationals, with
every elimination and pivot step in Python ints.  Coefficients may be ints
or Fractions.  Each row is scaled on entry by the lcm of its denominators
(a row of ints enters as it is), and every stored integer row (echelon
rows, tableau rows, the cost row) is a positive multiple of the rational
row it stands for.  A step forms a*row - f*pivot_row with a > 0 and divides
the result by its gcd, so the multiple stays positive and the entries stay
small.  The rational algorithm reads only signs and ratios of such rows: a
pivot column is the first nonzero entry, the entering column is the first
negative reduced cost, and the ratio test compares b_i / a_i, here by
cross-multiplication.  So the integer solver takes the pivot path of the
same algorithm run in Fraction arithmetic and returns the same point;
Fractions are made only for the values it returns.

Every call starts with one exact elimination (`Echelon`) over the rows.  It
keeps the original rows of a maximal independent subset, in their original
order, and finds an inconsistent system, a row that reduces to 0 = c with
c != 0, without any simplex.  Only then is the proof built: a row
combination y with yᵀA = 0 and yᵀb != 0, in int weights, that solves the
conflicting row against the kept rows.  That system changes only in its
right-hand side from one conflict to the next, so one more elimination
factors it once for all conflicts over the same kept rows.  Before
"inconsistent" is returned as None, y is rechecked against the original
rows, just as a feasible point is rechecked against every row.  The reduced
echelon form is also the start basis of phase one, with each pivot variable
basic.  One auxiliary variable x0 enters every row whose rhs is negative
(Chvátal, Linear Programming, 1983, ch. 3), and Bland's anti-cycling rule
minimizes x0 over rank rows and n + 2 columns; a basic point that is
already nonnegative takes no pivot.

Callers that solve many programs sharing their leading rows factor those
rows once and pass the factorization in; each call then reduces only the
rows that follow.  The tests check this solver against a brute-force
basic-solution enumerator in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import ContractError, InputError

Rational = Union[int, Fraction]
Row = tuple[tuple[Rational, ...], Rational]


@dataclass(frozen=True)
class LinearProgram:
    """Equalities over nonnegative rational variables, stored exactly.

    Coefficients and right-hand sides are ints or Fractions."""

    n_vars: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        for coeffs, _ in self.rows:
            if len(coeffs) != self.n_vars:
                raise InputError("coefficient row length does not match variable count")

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.n_vars:
            return False
        # Over a common denominator d of x: sum c * (d x_j) == d * rhs holds
        # iff sum c x_j == rhs, and stays in ints when the row is integral.
        d = lcm(*(v.denominator for v in x))
        scaled = [v.numerator * (d // v.denominator) for v in x]
        if any(v < 0 for v in scaled):
            return False
        return all(sum(c * v for c, v in zip(coeffs, scaled) if c) == d * rhs
                   for coeffs, rhs in self.rows)

    def refuted_by(self, y: dict[int, Rational]) -> bool:
        """True iff the row combination y (row index -> weight) reads
        0 = c with c != 0, which proves the equalities have no solution."""
        total = [0] * (self.n_vars + 1)
        for i, w in y.items():
            coeffs, rhs = self.rows[i]
            for j, c in enumerate(coeffs + (rhs,)):
                if c:
                    total[j] += w * c
        return not any(total[:-1]) and total[-1] != 0


def _integral(coeffs: Sequence[Rational], rhs: Rational) -> list[int]:
    """The row (coeffs..., rhs) times the lcm of its denominators.  A row of
    ints, as every additivity row is, has lcm 1 and comes back as it is."""
    row = [*coeffs, rhs]
    if all(type(v) is int for v in row):
        return row
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _support(row: Sequence[int]) -> list[tuple[int, int]]:
    return [(j, p) for j, p in enumerate(row) if p]


def _factors(d: int, f: int) -> tuple[int, int]:
    """The multipliers (a, f) for which a * v - f * p clears a column where
    p holds d > 0 and v holds f: d and f divided by their gcd, so a > 0."""
    common = gcd(d, f)
    return d // common, f // common


def _cancel(v: list[int], a: int, f: int, support: list[tuple[int, int]]) -> list[int]:
    """a * v - f * p for p given by its nonzero entries: most entries are
    zero, and the row is scaled only when a != 1."""
    out = [a * x for x in v] if a != 1 else v[:]
    for j, p in support:
        out[j] -= f * p
    return out


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    common = gcd(*v)
    return [x // common for x in v] if common > 1 else v


class Echelon:
    """Reduced row echelon form of a row sequence, built one row at a time.

    kept holds the indices of the rows that are independent of the rows
    before them: a maximal independent subset, in original order.  Each
    echelon row is integer coefficients plus rhs, a primitive positive
    multiple of the rational reduced row: positive at its pivot column and 0
    at every other pivot column.  A row that reduces to 0 = c with c != 0
    stops the elimination, and conflict holds its index; `certificate`
    builds the row combination that proves it only when asked.

    Echelon rows are replaced, never changed in place, so `extended` can share
    them with the factorization it starts from.  An extension that keeps no
    new row also shares the certificate system, factored on first use.
    """

    def __init__(self, n_cols: int) -> None:
        self.n_cols = n_cols
        self.source: tuple[Row, ...] = ()
        self.kept: list[int] = []
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        self.conflict: Optional[int] = None
        # Holds the factored certificate system of these kept rows once built.
        self._transposed: list["Echelon"] = []

    @staticmethod
    def of(rows: Sequence[Row], n_cols: int) -> "Echelon":
        return Echelon(n_cols).extended(rows)

    @property
    def rank(self) -> int:
        return len(self.kept)

    def extended(self, rows: Sequence[Row]) -> "Echelon":
        """A new factorization of self.source followed by rows."""
        out = Echelon(self.n_cols)
        out.kept, out.pivots, out.rows = self.kept[:], self.pivots[:], self.rows[:]
        out.conflict = self.conflict
        out._transposed = self._transposed
        out.source = self.source + tuple(rows)
        for index in range(len(self.source), len(out.source)):
            if out.conflict is not None:
                break
            out._add(index)
        return out

    def _add(self, index: int) -> None:
        v = _integral(*self.source[index])
        for k, p in enumerate(self.pivots):
            if v[p]:
                row = self.rows[k]
                a, f = _factors(row[p], v[p])
                v = _cancel(v, a, f, _support(row))
        col = next((j for j in range(self.n_cols) if v[j]), None)
        if col is None:
            if v[-1]:
                self.conflict = index
            return  # otherwise a combination of the rows kept so far
        v = _primitive(v if v[col] > 0 else [-x for x in v])
        support = _support(v)
        for k, row in enumerate(self.rows):
            if row[col]:
                a, f = _factors(v[col], row[col])
                self.rows[k] = _primitive(_cancel(row, a, f, support))
        self.kept.append(index)
        self.pivots.append(col)
        self.rows.append(v)
        self._transposed = []

    def certificate(self) -> dict[int, int]:
        """Int weights y on the source rows (index -> weight) with yᵀA = 0
        and yᵀb != 0, for the row in conflict.

        Its coefficients are a unique combination w of the kept rows, which
        are independent; w solves the rank × rank system M w = b on the
        pivot columns, where only b, the conflicting row there, changes from
        one conflict to the next.  y is w times the lcm L of its
        denominators, with -L on the conflicting row, so yᵀb is L times the
        c of its 0 = c."""
        coeffs = self.source[self.conflict][0]
        b = [(self.rank + i, coeffs[p]) for i, p in enumerate(self.pivots) if coeffs[p]]
        solved = self._transposed_system()
        w = {}
        for k, row in zip(solved.pivots, solved.rows):
            total = sum(row[j] * v for j, v in b)
            if total:
                w[self.kept[k]] = Fraction(total, row[k])
        scale = lcm(*(v.denominator for v in w.values()))
        y = {i: v.numerator * (scale // v.denominator) for i, v in w.items()}
        y[self.conflict] = -scale
        return y

    def _transposed_system(self) -> "Echelon":
        """[M | I] reduced once, where M is the kept rows' coefficients on
        the pivot columns, transposed.  M is invertible, so the reduced row
        with pivot k reads d w_k = g · b, d at column k and g in the
        identity block, for every right-hand side b."""
        if not self._transposed:
            r = self.rank
            columns = list(zip(*(self.source[i][0] for i in self.kept)))
            unit = [(0,) * i + (1,) + (0,) * (r - 1 - i) for i in range(r)]
            self._transposed.append(Echelon.of(
                [(columns[p] + unit[i], 0) for i, p in enumerate(self.pivots)], 2 * r))
        return self._transposed[0]


def lp_feasible(program: LinearProgram,
                factored: Optional[Echelon] = None) -> Optional[list[Fraction]]:
    """Return an exact feasible point of {rows hold, x >= 0}, or None.

    factored, when given, must be the factorization of the program's leading
    rows; only the rows after them are reduced here.  An inconsistent system
    returns None after its certificate is built and rechecked.  Otherwise
    phase one starts from the echelon basis, puts one auxiliary column x0 in
    every row whose rhs is negative and minimizes x0.  Bland's rule (lowest eligible
    index for the entering column and, on ratio ties, the leaving basic
    variable) guarantees termination on degenerate tableaus.
    """
    n = program.n_vars
    if factored is None:
        factored = Echelon(n)
    lead = len(factored.source)
    if factored.n_cols != n or program.rows[:lead] != factored.source:
        raise ContractError("factorization does not match the program's leading rows")
    echelon = factored.extended(program.rows[lead:])
    if echelon.conflict is not None:
        if not program.refuted_by(echelon.certificate()):
            raise AssertionError("inconsistency certificate does not refute the program")
        return None

    # Tableau rows: the echelon rows with the x0 column (index n) before the
    # rhs.  Each is positive in its basic (pivot) column; where the rhs is
    # negative x0 carries minus that entry, so the row reads x_p + ... - x0 = b.
    m = echelon.rank
    basis = echelon.pivots[:]
    tableau = [row[:n] + [-row[p] if row[-1] < 0 else 0, row[-1]]
               for row, p in zip(echelon.rows, basis)]
    # Reduced costs of minimizing x0; the rhs holds minus the objective.  With
    # no negative rhs the basic point is feasible and no pivot is made.
    cost = [0] * n + [1, 0]
    infeasible = [i for i in range(m) if tableau[i][-1] < 0]
    if infeasible:
        # x0 enters on the most negative rhs / pivot ratio (ties to the
        # lowest basic index), which makes every rhs nonnegative.  The row
        # is negated first, so its pivot entry in the x0 column is positive.
        leaving = infeasible[0]
        for i in infeasible[1:]:
            row, best = tableau[i], tableau[leaving]
            left, right = row[-1] * best[basis[leaving]], best[-1] * row[basis[i]]
            if left < right or (left == right and basis[i] < basis[leaving]):
                leaving = i
        tableau[leaving] = [-v for v in tableau[leaving]]
        _pivot(tableau, cost, basis, leaving, n)

    while True:
        entering = next((j for j in range(n + 1) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            best = tableau[pivot_row]
            # rhs_i / coeff against the best ratio; both denominators are > 0.
            left, right = tableau[i][-1] * best[entering], best[-1] * coeff
            if left < right or (left == right and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-one objective cannot be unbounded")
        _pivot(tableau, cost, basis, pivot_row, entering)

    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        if var < n:
            x[var] = Fraction(row[-1], row[var])
    if not program.satisfied_by(x):
        raise AssertionError("phase-one point does not satisfy the program")
    return x


def _pivot(tableau: list[list[int]], cost: list[int],
           basis: list[int], row: int, col: int) -> None:
    """Clear col outside the pivot row.  The pivot row keeps its scale: it is
    already a positive multiple of itself divided by its positive pivot."""
    d = tableau[row][col]
    support = _support(tableau[row])
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            a, f = _factors(d, other[col])
            tableau[i] = _primitive(_cancel(other, a, f, support))
    if cost[col]:
        a, f = _factors(d, cost[col])
        cost[:] = _primitive(_cancel(cost, a, f, support))
    basis[row] = col
