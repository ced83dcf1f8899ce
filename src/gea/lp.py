"""Exact rational feasibility solver for equality systems with sign bounds.

Decides whether {A x = b, x >= 0} has a solution over the rationals, with
every elimination and pivot step in Python ints.  Every row is sparse: a
`LinearProgram` takes each row as its nonzero (column, coefficient) int
pairs and an int rhs, and every reduced and tableau row is a
{column: coefficient} dict of its nonzero entries, with the rhs at column
n.  A program factors each row as it enters: one exact elimination keeps
the rows of a maximal independent subset, in their original order, with
their reduced echelon form, and finds an inconsistent system, a row that
reduces to 0 = c with c != 0, without any simplex.  `extended` adds rows to
a copy that shares the factorization, so programs that share their leading
rows factor those rows once.

One column-clearing step (`_eliminate`) serves the echelon's
back-substitution and every phase-one pivot: it forms a*row - f*pivot_row
with a > 0 in every other row, so each stored row stays a positive multiple
of the rational row it stands for, and divides the result by its gcd, so the
entries stay small.  Phase one reads only the signs of such rows and the
least columns where they hold: the pivot column of a new echelon row is its
least nonzero column, the leaving row is the least basic variable's row
with a negative rhs, and the entering column is that row's least negative
column.  A positive multiple of a row has the rational row's signs, so the
integer solver takes the pivot path of the same algorithm run in Fraction
arithmetic and returns the same point.  That point is formed as int
numerators over one denominator and rechecked in ints; Fractions are made
only for the values it returns, and every zero coordinate is one shared
Fraction(0), so a point costs what its nonzero coordinates cost.

Every row carries its weights on the original rows: row i enters with a
weight of 1 at key n + 1 + i, past the rhs, and each step above acts on
every key, so each reduced and tableau row is an exact int combination y of
the original rows, with y at its keys past n.  That makes every "no" a
checked proof, in one form: a Farkas certificate, yᵀA >= 0 at every column
and yᵀb < 0, which reads "nonnegative terms = a negative number"
(Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7).  A row
that reduces to 0 = c with c != 0 is stored with its rhs made negative, so
it is one, with yᵀA = 0; the phase-one row with a negative rhs and no
negative entry is another.  Before "no" is returned as None, y is rechecked
in ints against the rows, just as a feasible point is rechecked against
every row.  The reduced echelon form is also the start basis of phase one,
with each pivot variable basic, and phase one is the dual simplex with zero
cost under Bland's least-index rule (Lemke, Naval Research Logistics
Quarterly 1, 1954; Bland, Mathematics of Operations Research 2(2), 1977);
see `lp_feasible`.  A basic point that is already nonnegative takes no
pivot.

The tests check this solver against a brute-force basic-solution enumerator
and a Fraction copy of the same algorithm, both in tests/.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError

Row = tuple[tuple[tuple[int, int], ...], int]
_ZERO = Fraction(0)  # every zero coordinate of a returned point


class LinearProgram:
    """Equalities over nonnegative rational variables with int coefficients
    and right-hand sides, factored as each row enters.

    rows holds the rows in the order given, each as its nonzero
    (column, coefficient) pairs in increasing column order and its rhs; the
    rechecks of a point or of row weights read those pairs.  The reduced rows
    stand for the rows that are independent of the rows before them, a
    maximal independent subset.  Each is a {column: coefficient} dict of its
    nonzero entries, with its rhs at column n_vars and its weight on row i
    at column n_vars + 1 + i, and a primitive positive multiple of the
    rational reduced row: positive at its pivot column (in pivots) and 0 at
    every other pivot column.  A row that reduces to 0 = c with c != 0
    stops the elimination: conflict holds it in the same form, primitive,
    with c < 0 at column n_vars and no variable column; until then it is
    None.

    Reduced rows are replaced, never changed in place, so `extended` can share
    them with the program it starts from.
    """

    def __init__(self, n_vars: int, rows: Iterable[Row] = ()) -> None:
        self.n_vars = n_vars
        self.rows: tuple[Row, ...] = ()
        self.pivots: list[int] = []
        self.reduced: list[dict[int, int]] = []
        self.conflict: Optional[dict[int, int]] = None
        self._enter(rows)

    def __repr__(self) -> str:
        return f"LinearProgram({self.n_vars}, {list(self.rows)!r})"

    def extended(self, rows: Iterable[Row]) -> "LinearProgram":
        """A new program of these rows followed by rows; self is unchanged."""
        out = LinearProgram(self.n_vars)
        out.rows = self.rows
        out.pivots = self.pivots[:]
        out.reduced, out.conflict = self.reduced[:], self.conflict
        out._enter(rows)
        return out

    def _enter(self, rows: Iterable[Row]) -> None:
        start = len(self.rows)
        self.rows += tuple(rows)
        for index in range(start, len(self.rows)):
            v = _entries(self.rows[index], self.n_vars)
            if self.conflict is None:
                v[self.n_vars + 1 + index] = 1
                self._add(index, v)

    def _add(self, index: int, v: dict[int, int]) -> None:
        for row, p in zip(self.reduced, self.pivots):
            if p in v:
                v = _reduce(v, p, row)
        col = min(v)  # v holds its own weight, past the rhs
        if col > self.n_vars:  # a combination of the independent rows before it
            return
        # Positive at a pivot column; negative at the rhs of 0 = c.
        v = _primitive(v if (v[col] > 0) == (col < self.n_vars) else {j: -x for j, x in v.items()})
        if col == self.n_vars:
            self.conflict = v
            return
        self.reduced.append(v)
        _eliminate(self.reduced, len(self.reduced) - 1, col)
        self.pivots.append(col)

    def satisfied_by(self, nums: Sequence[int], den: int) -> bool:
        """True iff the point x = nums / den, den > 0, is nonnegative and
        holds every row: sum c * nums_j == den * rhs iff sum c x_j == rhs,
        in ints."""
        if len(nums) != self.n_vars or den <= 0 or any(v < 0 for v in nums):
            return False
        return all(sum(c * nums[j] for j, c in pairs) == den * rhs for pairs, rhs in self.rows)

    def refuted_by(self, y: dict[int, int]) -> bool:
        """True iff the row combination y (row index -> weight) reads
        "nonnegative terms = a negative number", yᵀA >= 0 at every column
        and yᵀb < 0, which proves no x >= 0 holds the rows (Farkas)."""
        total: dict[int, int] = {}
        b = 0
        for i, w in y.items():
            pairs, rhs = self.rows[i]  # validated by _entries as it entered
            for j, c in pairs:
                total[j] = total.get(j, 0) + w * c
            b += w * rhs
        return min(total.values(), default=0) >= 0 and b < 0


def _entries(row: Row, n_vars: int) -> dict[int, int]:
    """The row's nonzero entries as {column: coefficient}, with its rhs at
    column n_vars; InputError unless the rhs is an int and the pairs hold
    nonzero int coefficients at int columns that increase within
    range(n_vars), and unless the row and its entries are pairs.  A Fraction
    or a bool is not an int here."""
    try:
        pairs, rhs = row
        entries = [(j, c) for j, c in pairs]
    except (TypeError, ValueError) as exc:
        raise InputError("a row must be a pair (pairs, rhs) of column, coefficient pairs") from exc
    if type(rhs) is not int:
        raise InputError("right-hand sides must be ints")
    v: dict[int, int] = {}
    last = -1
    for j, c in entries:
        if type(j) is not int or type(c) is not int or c == 0 or not last < j < n_vars:
            raise InputError("a row's entries must be nonzero int coefficients at int "
                             "columns that increase within the variable count")
        v[j] = c
        last = j
    if rhs:
        v[n_vars] = rhs
    return v


def _weights(row: dict[int, int], n_vars: int) -> dict[int, int]:
    """The row's weights on the original rows, {row index: weight}."""
    return {j - n_vars - 1: w for j, w in row.items() if j > n_vars}


def _reduce(v: dict[int, int], col: int, pivot_row: dict[int, int]) -> dict[int, int]:
    """a * v - f * p, which is 0 at col, for the row p = pivot_row holding
    d > 0 at col: a and f are d and v[col] over their gcd, so a > 0.  v is
    scaled only when a != 1, and entries that cancel are dropped."""
    common = gcd(pivot_row[col], v[col])
    a, f = pivot_row[col] // common, v[col] // common
    out = {j: a * x for j, x in v.items()} if a != 1 else dict(v)
    for j, p in pivot_row.items():
        value = out.get(j, 0) - f * p
        if value:
            out[j] = value
        else:
            del out[j]
    return out


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """v divided by the gcd of its entries."""
    common = gcd(*v.values())
    return {j: x // common for j, x in v.items()} if common > 1 else v


def _eliminate(rows: list[dict[int, int]], r: int, col: int) -> None:
    """Clear col in every row but rows[r], which is positive there, and make
    each changed row primitive.  Rows are replaced, never changed in place;
    rows[r] keeps its scale."""
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        if i != r and col in row:
            rows[i] = _primitive(_reduce(row, col, pivot_row))


def lp_feasible(program: LinearProgram) -> Optional[list[Fraction]]:
    """Return an exact feasible point of {rows hold, x >= 0}, or None.

    Phase one is Lemke's dual simplex (1954) with zero cost, from the
    program's echelon basis: while some row has a negative rhs, the one
    whose basic variable is least leaves, and the least column where it is
    negative enters.  With a zero objective every basis is dual feasible
    and every dual ratio is 0, so these two least-index choices are Bland's
    rule (1977) on the dual, and no basis repeats: the loop is finite.
    None is returned for one row with a negative rhs and no negative entry,
    the program's conflict or else the leaving row that has no entering
    column, after its weights are rechecked as a Farkas certificate.
    """
    # Tableau rows: the reduced rows, with the rhs at column n, each positive
    # in its basic (pivot) column.  The leaving row is negated into a new
    # dict, so it is positive at the entering column and the reduced rows,
    # which extended programs share, are never changed.
    n = program.n_vars
    basis = program.pivots[:]
    tableau = program.reduced[:]
    refuting = program.conflict
    while refuting is None:
        leaving = min((i for i, row in enumerate(tableau) if row.get(n, 0) < 0),
                      key=basis.__getitem__, default=None)
        if leaving is None:
            break
        row = tableau[leaving]
        entering = min((j for j, v in row.items() if v < 0 and j < n), default=None)
        if entering is None:
            refuting = row
        else:
            tableau[leaving] = {j: -v for j, v in row.items()}
            _pivot(tableau, basis, leaving, entering)
    if refuting is not None:
        if not program.refuted_by(_weights(refuting, n)):
            raise AssertionError("row weights do not refute the program")
        return None

    # The basic point over one denominator: x_var = b / d for each basic row.
    basic = [(var, row) for row, var in zip(tableau, basis) if n in row]
    den = lcm(*(row[var] for var, row in basic))
    nums = [0] * n
    for var, row in basic:
        nums[var] = row[n] * (den // row[var])
    if not program.satisfied_by(nums, den):
        raise AssertionError("phase-one point does not satisfy the program")
    return [Fraction(p, den) if p else _ZERO for p in nums]


def _pivot(tableau: list[dict[int, int]], basis: list[int], row: int, col: int) -> None:
    """Make col basic in row, which is positive there."""
    _eliminate(tableau, row, col)
    basis[row] = col
