import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gea
from gea import lp
from gea.algebra import require_gea
from gea.errors import InputError
from gea.generate import random_gea
from gea.lp import LinearProgram, lp_feasible
from gea.states import additivity_program
from reference import (atom_pair_program, basic_solution_feasible, checked_proofs, dense,
                       pair_programs, reference_pair_programs, satisfies, sparse)


def build_program(n_vars, rows):
    """A LinearProgram of rows with rational entries, one per variable:
    LinearProgram takes sparse int rows, so each row is scaled here by the
    lcm of its denominators and then made sparse."""
    scaled = []
    for coeffs, rhs in rows:
        row = [Fraction(v) for v in (*coeffs, rhs)]
        scale = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (scale // v.denominator) for v in row]
        scaled.append((tuple(ints[:-1]), ints[-1]))
    return LinearProgram(n_vars, sparse(scaled))


# Reference solver: the same elimination and the same phase one, the dual
# simplex with zero cost under Bland's rule, in Fraction arithmetic, with
# every echelon row normalized to 1 at its pivot and every tableau row to 1
# at its basic column.  The integer solver must take the same pivot path, so
# it must return the identical point and keep the same rows.

def _ref_support(row):
    return [(j, p) for j, p in enumerate(row) if p]


def _ref_sub(v, f, support):
    out = v[:]
    for j, p in support:
        out[j] -= f * p
    return out


def _ref_combine(y, f, z):
    for i, w in z.items():
        y[i] = y.get(i, 0) - f * w


class ReferenceEchelon:
    """Rational reduced row echelon form, built one row at a time."""

    def __init__(self, n_cols):
        self.n_cols = n_cols
        self.source = ()
        self.kept = []
        self.pivots = []
        self.rows = []
        self.combos = []
        self.conflict = None

    @staticmethod
    def of(rows, n_cols):
        return ReferenceEchelon(n_cols).extended(rows)

    def extended(self, rows):
        out = ReferenceEchelon(self.n_cols)
        out.kept, out.pivots = self.kept[:], self.pivots[:]
        out.rows, out.combos = self.rows[:], self.combos[:]
        out.conflict = self.conflict
        out.source = self.source + tuple(rows)
        for index in range(len(self.source), len(out.source)):
            if out.conflict is not None:
                break
            out._add(index)
        return out

    def _add(self, index):
        pairs, rhs = self.source[index]
        v = [Fraction(c) for c in dense(dict(pairs), self.n_cols)[:-1]] + [Fraction(rhs)]
        used = [(k, v[p]) for k, p in enumerate(self.pivots) if v[p]]
        for k, f in used:
            v = _ref_sub(v, f, _ref_support(self.rows[k]))
        col = next((j for j in range(self.n_cols) if v[j]), None)
        if col is None and not v[-1]:
            return
        combo = {index: Fraction(1)}
        for k, f in used:
            _ref_combine(combo, f, self.combos[k])
        if col is None:
            self.conflict = {i: w for i, w in combo.items() if w}
            return
        lead = v[col]
        v = [a / lead for a in v]
        combo = {i: w / lead for i, w in combo.items() if w}
        support = _ref_support(v)
        for k, row in enumerate(self.rows):
            f = row[col]
            if f:
                self.rows[k] = _ref_sub(row, f, support)
                update = dict(self.combos[k])
                _ref_combine(update, f, combo)
                self.combos[k] = update
        self.kept.append(index)
        self.pivots.append(col)
        self.rows.append(v)
        self.combos.append(combo)


def _ref_pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    support = _ref_support(tableau[row])
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = _ref_sub(other, other[col], support)
    basis[row] = col


def reference_lp_feasible(program, factored=None) -> Optional[list]:
    """Phase one from the echelon basis as the dual simplex with zero cost,
    in Fractions: the row of least basic variable with a negative rhs
    leaves, and its least negative column enters; None when that row has
    no negative entry."""
    n = program.n_vars
    if factored is None:
        factored = ReferenceEchelon(n)
    echelon = factored.extended(program.rows[len(factored.source):])
    if echelon.conflict is not None:
        assert program.refuted_by(echelon.conflict)
        return None
    # Each echelon row is 1 at its pivot, with its rhs last.
    basis = echelon.pivots[:]
    tableau = [row[:] for row in echelon.rows]
    while True:
        infeasible = [i for i, row in enumerate(tableau) if row[-1] < 0]
        if not infeasible:
            break
        leaving = min(infeasible, key=lambda i: basis[i])
        entering = next((j for j in range(n) if tableau[leaving][j] < 0), None)
        if entering is None:
            return None
        _ref_pivot(tableau, basis, leaving, entering)
    x = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        x[var] = row[-1]
    assert satisfies(program, x)
    return x


def test_single_pinned_variable():
    program = build_program(1, [((1,), 1)])
    assert lp_feasible(program) == [Fraction(1)]


def test_sign_contradiction_is_infeasible():
    program = build_program(2, [((1, 1), 1), ((1, -1), 3)])
    assert lp_feasible(program) is None
    assert basic_solution_feasible(program) is None


def test_excd_normalized_witness_program(excd):
    # excd's atoms are its two projectors, so the pair row is x1 - x2 = 1.
    program = atom_pair_program(additivity_program(require_gea(excd)), 1, 2)
    assert program.rows == ((((0, 1), (1, -1)), 1),)
    solution = lp_feasible(program)
    assert solution == [Fraction(1), Fraction(0)]
    assert basic_solution_feasible(program) is not None


def test_empty_program_is_feasible_at_zero():
    program = build_program(3, [])
    assert lp_feasible(program) == [Fraction(0)] * 3


def test_zero_rows_with_nonzero_rhs_infeasible():
    program = build_program(2, [((0, 0), 1)])
    assert lp_feasible(program) is None
    assert basic_solution_feasible(program) is None


def test_solution_is_exact_on_awkward_fractions():
    program = build_program(
        2, [((Fraction(1, 3), Fraction(1, 7)), Fraction(2, 21))])
    solution = lp_feasible(program)
    assert solution is not None
    assert satisfies(program, solution)


def corpus_pair_programs(table):
    """The atom program's pair LPs of a table, then the reference
    program's: one variable per nonzero element and one row per sum."""
    return itertools.chain(pair_programs(table), reference_pair_programs(table))


def test_simplex_matches_oracle_on_corpus_pairs(valid_corpus):
    checked = 0
    for name, table in valid_corpus.items():
        programs = corpus_pair_programs(table) if table.n <= 6 else pair_programs(table)
        for program in programs:
            simplex = lp_feasible(program)
            oracle = basic_solution_feasible(program)
            assert (simplex is None) == (oracle is None), (name, program)
            checked += 1
    assert checked > 100


coeff = st.integers(min_value=-3, max_value=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff),
                 min_size=0, max_size=4))))
def test_simplex_matches_oracle_on_random_programs(case):
    n, rows = case
    program = build_program(n, rows)
    simplex = lp_feasible(program)
    oracle = basic_solution_feasible(program)
    assert (simplex is None) == (oracle is None)
    if simplex is not None:
        assert satisfies(program, simplex)
        assert all(v >= 0 for v in simplex)


def _scaled(row, q):
    coeffs, rhs = row
    return tuple(q * c for c in coeffs), q * rhs


def _summed(left, right):
    return tuple(a + b for a, b in zip(left[0], right[0])), left[1] + right[1]


@st.composite
def redundant_programs(draw):
    """A few base rows plus rows that depend on them by construction:
    duplicates, scaled copies and sums, shuffled in; optionally one more
    combination whose rhs is shifted, which makes the system inconsistent."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [(tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in draw(
        st.lists(st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff),
                 min_size=1, max_size=3))]
    scale = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    for kind in draw(st.lists(st.sampled_from(("duplicate", "scaled", "sum")),
                              min_size=1, max_size=4)):
        first = draw(st.sampled_from(rows))
        if kind == "duplicate":
            rows.append(first)
        elif kind == "scaled":
            rows.append(_scaled(first, draw(scale)))
        else:
            rows.append(_summed(first, draw(st.sampled_from(rows))))
    inconsistent = draw(st.booleans())
    if inconsistent:
        coeffs, rhs = _summed(_scaled(draw(st.sampled_from(rows)), draw(scale)),
                              draw(st.sampled_from(rows)))
        rows.append((coeffs, rhs + draw(scale)))
    rows = draw(st.permutations(rows))
    return build_program(n, rows), inconsistent


@settings(max_examples=200, deadline=None)
@given(redundant_programs())
def test_presolve_matches_oracle_on_redundant_rows(case):
    program, inconsistent = case
    simplex = lp_feasible(program)
    oracle = basic_solution_feasible(program)
    assert (simplex is None) == (oracle is None)
    if inconsistent:
        assert simplex is None
    if simplex is not None:
        assert satisfies(program, simplex)
    if inconsistent:
        assert program.conflict is not None
    if program.conflict is not None:
        assert program.refuted_by(program.certificate())
    else:
        kept = [program.rows[i] for i in program.kept]
        assert len(LinearProgram(program.n_vars, kept).pivots) == len(kept)


def test_inconsistent_pair_row_settled_by_elimination():
    # a + a = c and b + b = c force s(a) = s(b); s(a) - s(b) = 1 contradicts it.
    program = LinearProgram(3, sparse([((2, 0, -1), 0), ((0, 2, -1), 0), ((1, -1, 0), 1)]))
    assert program.kept == [0, 1]
    assert program.conflict == 2
    assert program.certificate() == {0: 1, 1: -1, 2: -2}
    assert lp_feasible(program) is None


def test_refuted_by_checks_the_combination():
    program = build_program(2, [((1, 1), 1), ((2, 2), 3)])
    assert program.refuted_by({0: Fraction(2), 1: Fraction(-1)})
    assert not program.refuted_by({0: Fraction(1)})
    assert not program.refuted_by({0: Fraction(2), 1: Fraction(-2)})


def test_bounds_refuted_by_checks_the_signs():
    # x0 + 2 x1 = -1 reads nonnegative terms = -1; x0 - x1 = -1 does not,
    # and twice the first row less the second is x0 + 5 x1 = -1.
    program = LinearProgram(2, sparse([((1, 2), -1), ((1, -1), -1)]))
    assert program._bounds_refuted_by({0: 1})
    assert not program._bounds_refuted_by({1: 1})
    assert program._bounds_refuted_by({0: 2, 1: -1})
    assert not program._bounds_refuted_by({0: -1})  # 1 on the right
    assert not program._bounds_refuted_by({})  # 0 on the right


def test_satisfied_by_rechecks_every_row():
    # Row 1 is not kept: it conflicts with row 0, which x satisfies.  Row 2
    # comes after the conflict and is never reduced.  Points are int
    # numerators over one denominator.
    program = LinearProgram(2, sparse([((1, 0), 1), ((2, 0), 3), ((0, 1), 1)]))
    assert program.kept == [0] and program.conflict == 1
    assert not program.satisfied_by([1, 1], 1)
    base = LinearProgram(2, sparse([((1, 0), 1)]))
    extended = base.extended(sparse([((0, 0), 0), ((0, 3), 2)]))
    assert base.satisfied_by([1, 0], 1)
    assert not extended.satisfied_by([1, 0], 1)
    assert extended.satisfied_by([3, 2], 3)
    assert extended.satisfied_by([6, 4], 6)
    assert not extended.satisfied_by([3, -2], 3)
    assert not base.satisfied_by([-1, 0], -1)  # 1, 0 over a denominator that is not positive
    assert not base.satisfied_by([1], 1)  # one value short


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_vars=st.integers(1, 5), den=st.integers(1, 12))
def test_satisfied_by_matches_fraction_evaluation(data, n_vars, den):
    # den need not be reduced against the numerators, and numerators may be
    # negative; the int recheck must agree with the rational point's own
    # check of every row and every sign.
    nums = data.draw(st.lists(st.integers(-6, 12), min_size=n_vars, max_size=n_vars))
    x = [Fraction(p, den) for p in nums]
    rows = []
    for _ in range(data.draw(st.integers(0, 4))):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n_vars, max_size=n_vars))
        value = sum(c * v for c, v in zip(coeffs, x))
        rhs = value.numerator // value.denominator + data.draw(st.integers(-1, 1))
        rows.append((coeffs, rhs))
    program = LinearProgram(n_vars, sparse(rows))
    expected = (all(v >= 0 for v in x)
                and all(sum(c * v for c, v in zip(coeffs, x)) == rhs for coeffs, rhs in rows))
    assert program.satisfied_by(nums, den) == expected


def test_wrong_inconsistency_claim_is_caught():
    program = LinearProgram(2, sparse([((1, 0), 1), ((0, 1), 1)]))
    program.conflict = 0  # row 0 is consistent and kept
    with pytest.raises(AssertionError):
        lp_feasible(program)


# The three exact rechecks made to fail, in an interpreter that strips
# assert statements: a feasible program, an inconsistent one and one with no
# nonnegative solution, x0 = -1, must still raise.
_FAILED_RECHECKS = """
import sys
from gea.lp import LinearProgram, lp_feasible
if not sys.flags.optimize:
    sys.exit("assert statements are not stripped")
LinearProgram.satisfied_by = lambda self, nums, den: False
LinearProgram.refuted_by = lambda self, y: False
LinearProgram._bounds_refuted_by = lambda self, y: False
for rows in (((((0, 1),), 1),), ((((0, 1),), 1), (((0, 1),), 2)), ((((0, 1),), -1),)):
    try:
        result = lp_feasible(LinearProgram(1, rows))
    except AssertionError:
        continue
    sys.exit(f"{rows}: returned {result!r}")
"""


def test_failed_rechecks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(gea.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _FAILED_RECHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_factored_prefix_gives_the_unfactored_answer():
    rows = sparse([((1, 1, -1), 0), ((2, 2, -2), 0), ((1, -1, 0), 1)])
    factored = LinearProgram(3, rows[:2])
    assert factored.kept == [0]
    assert lp_feasible(factored.extended(rows[2:])) == lp_feasible(LinearProgram(3, rows))
    assert len(factored.pivots) == 1 and len(factored.rows) == 2  # left unchanged


@pytest.mark.parametrize("row", [
    (((0, Fraction(1)),), 1),  # a Fraction coefficient, though its value is an int
    (((0, 1),), Fraction(1, 2)),
    (((0, True),), 1),
    (((0, 1),), False),
    (((0, 0), (1, 1)), 1),  # a zero coefficient
    (((2, 1),), 1),  # a column out of range
    (((-1, 1),), 1),
    (((1, 1), (1, 1)), 1),  # a repeated column
    (((1, 1), (0, 1)), 1),  # a decreasing column
    ((1, -1), 0),  # a dense row
    (((0, 1, 1),), 0),  # an entry that is not a (column, coefficient) pair
    (((0, 1),), 0, 1),  # a row that is not a (pairs, rhs) pair
])
def test_rows_other_than_int_rows_of_the_variable_count_are_refused(row):
    with pytest.raises(InputError):
        LinearProgram(2, [row])
    with pytest.raises(InputError):
        LinearProgram(2, [(((1, 1),), 0)]).extended([row])
    # A row after a conflict, 0 = 1 here, is checked as well, though it is
    # not reduced.
    with pytest.raises(InputError):
        LinearProgram(2, [((), 1), row])


rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_programs(draw):
    """Programs with non-integer coefficients and right-hand sides of both
    signs; some rows repeat an earlier one up to a rational factor, and a
    few shift its rhs, which makes the system inconsistent."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if rows and draw(st.booleans()):
            coeffs, rhs = _scaled(draw(st.sampled_from(rows)),
                                  draw(rational.filter(bool)))
            rhs += draw(st.sampled_from((0, 0, 0, Fraction(1, 2))))
        else:
            coeffs = tuple(draw(st.lists(rational, min_size=n, max_size=n)))
            # Zero right-hand sides make degenerate pivots and ratio ties.
            rhs = draw(st.one_of(st.just(Fraction(0)), rational))
        rows.append((coeffs, rhs))
    return build_program(n, rows)


def assert_reduced_row(row, reference, n_vars):
    """row is primitive over all its entries, its weights too, and a
    positive multiple of reference, n_vars coefficients and the rhs, over
    the variables and the rhs."""
    assert gcd(*row.values()) == 1
    values = dense(row, n_vars)
    lead = next(j for j, r in enumerate(reference) if r)
    scale = Fraction(values[lead], reference[lead])
    assert scale > 0 and values == [scale * r for r in reference]


def _assert_every_split_matches(program):
    """For every k, the first k rows extended by the rest factor and solve
    as the whole program does, and the extension leaves the first k rows'
    program as it was."""
    n, rows = program.n_vars, program.rows
    x = lp_feasible(program)
    certificate = program.certificate() if program.conflict is not None else None
    for k in range(len(rows) + 1):
        prefix = LinearProgram(n, rows[:k])
        before = (prefix.kept[:], prefix.pivots[:], [dense(row, n) for row in prefix.reduced])
        split = prefix.extended(rows[k:])
        assert (prefix.kept, prefix.pivots, [dense(row, n) for row in prefix.reduced]) == before
        assert split.rows == rows
        assert split.kept == program.kept and split.pivots == program.pivots
        assert split.reduced == program.reduced and split.conflict == program.conflict
        assert lp_feasible(split) == x
        if certificate is not None:
            assert split.certificate() == certificate


@settings(max_examples=150, deadline=None)
@given(rational_programs())
def test_integer_solver_takes_the_reference_pivot_path(program):
    reference = ReferenceEchelon.of(program.rows, program.n_vars)
    assert program.kept == reference.kept
    assert program.pivots == reference.pivots
    assert (program.conflict is None) == (reference.conflict is None)
    if program.conflict is not None:
        assert program.refuted_by(program.certificate())
    for reduced, ref_row in zip(program.reduced, reference.rows, strict=True):
        assert_reduced_row(reduced, ref_row, program.n_vars)
    x = lp_feasible(program)
    assert x == reference_lp_feasible(program)
    assert x is None or all(type(v) is Fraction for v in x)
    _assert_every_split_matches(program)


def test_integer_solver_matches_reference_on_wider_programs():
    # More columns than rows leave many vertices, so a wrong leaving row or
    # a wrong entering column moves the returned point; at this size that
    # happens on about one program in a hundred, too rarely for the
    # hypothesis test.
    rng = random.Random(8)
    values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3, 4)]
    for _ in range(600):
        n, m = rng.randint(6, 8), rng.randint(3, 5)
        rows = [([rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(n)],
                 0 if rng.random() < 0.4 else rng.choice(values)) for _ in range(m)]
        program = build_program(n, rows)
        x = lp_feasible(program)
        assert x == reference_lp_feasible(program), rows
        assert (x is None) == (basic_solution_feasible(program) is None), rows
        _assert_every_split_matches(program)


def sparse_programs():
    """300 programs shaped like additivity programs: rows of 2 or 3 entries
    in +-1, +-2 and rhs 0 over 12-40 variables, then one pair row
    x_lo - x_hi = 1."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(12, 40)
        rows = []
        for _ in range(rng.randint(n * 3 // 10, n * 9 // 10)):
            columns = sorted(rng.sample(range(n), rng.choice((2, 3))))
            rows.append((tuple((j, rng.choice((-2, -1, 1, 2))) for j in columns), 0))
        lo, hi = rng.sample(range(n), 2)
        rows.append((tuple(sorted(((lo, 1), (hi, -1)))), 1))
        yield LinearProgram(n, rows)


def test_integer_solver_takes_the_reference_pivot_path_on_sparse_programs(pivots, monkeypatch):
    # Most phase-one pivots of sparse_programs are degenerate, so the
    # returned point alone rarely shows a wrong choice of row or column; the
    # pivot path, (row, column) of every pivot, is compared with the
    # reference's as well.  One program in about eight pivots more than
    # once, so 300 are drawn.
    path = []
    real = _ref_pivot
    monkeypatch.setitem(globals(), "_ref_pivot",
                        lambda tableau, basis, row, col: path.append((row, col))
                        or real(tableau, basis, row, col))
    conflicts = pivoted = 0
    for program in sparse_programs():
        n, rows = program.n_vars, program.rows
        reference = ReferenceEchelon.of(rows, n)
        assert program.kept == reference.kept and program.pivots == reference.pivots, rows
        pivots.clear()
        path.clear()
        x = lp_feasible(program)
        assert x == reference_lp_feasible(program), rows
        assert pivots == path, rows
        if program.conflict is not None:
            combo = reference.conflict
            scale = lcm(*(w.denominator for w in combo.values()))
            assert program.certificate() == {i: int(-w * scale) for i, w in combo.items()}
            conflicts += 1
        pivoted += len(pivots) > 1
        _assert_every_split_matches(program)
    assert conflicts > 5 and pivoted > 30


class TestEveryNoIsProved:
    """Every None of lp_feasible comes with row weights that its own int
    recheck accepted, and that reference_refutes accepts in Fractions:
    Farkas weights for a failure on the sign bounds, exact ones for a
    conflict."""

    def test_rational_and_redundant_programs(self, monkeypatch):
        checked, proofs = checked_proofs(monkeypatch)

        @settings(max_examples=300, deadline=None)
        @given(st.one_of(rational_programs(), redundant_programs().map(lambda case: case[0])))
        def proved(program):
            checked(program)

        proved()
        assert proofs["farkas"] > 5 and proofs["exact"] > 5

    def test_sparse_programs(self, monkeypatch):
        checked, proofs = checked_proofs(monkeypatch)
        for program in sparse_programs():
            checked(program)
        # Whether a program is infeasible, and whether it is inconsistent,
        # is a fact about the program, so these counts are fixed.
        assert proofs == {"farkas": 167, "exact": 33}

    def test_sign_failure_of_one_row(self, monkeypatch):
        # x0 = -1: the row itself, weight 1, reads x0 >= 0 = -1.
        checked, proofs = checked_proofs(monkeypatch)
        assert checked(LinearProgram(1, [(((0, 1),), -1)])) is None
        assert proofs == {"farkas": 1}


def test_integer_solver_matches_reference_on_corpus_pairs(valid_corpus):
    for name, table in valid_corpus.items():
        for program in corpus_pair_programs(table):
            assert lp_feasible(program) == reference_lp_feasible(program), name
            _assert_every_split_matches(program)


def test_zero_coordinates_are_fractions_equal_to_the_reference(valid_corpus):
    # lp_feasible returns one shared Fraction(0) for every zero coordinate;
    # each is still a Fraction, with the reference's value and denominator.
    zeros = 0
    for name, table in valid_corpus.items():
        for program in corpus_pair_programs(table):
            x, reference = lp_feasible(program), reference_lp_feasible(program)
            assert (x is None) == (reference is None), name
            for v, r in zip(x or (), reference or ()):
                assert type(v) is Fraction and (v, v.denominator) == (r, r.denominator), name
                zeros += v == 0
    assert zeros > 50


def test_scaled_rows_carry_their_scale_into_the_certificate():
    # 2x = 0 twice, then 4x = 1: the kept row is reduced to x = 0, but the
    # certificate weighs the original rows, 2 * (2x = 0) - (4x = 1).
    program = LinearProgram(1, sparse([((2,), 0), ((2,), 0), ((4,), 1)]))
    assert program.kept == [0]
    (reduced,) = program.reduced
    assert_reduced_row(reduced, [1, 0], 1)
    assert program.conflict == 2
    assert program.certificate() == {0: 2, 2: -1}
    assert program.refuted_by(program.certificate())
    assert lp_feasible(program) is None


def test_int_and_fraction_rows_share_one_pivot_path():
    # The same rows as ints and at 2/3 of their size, which build_program
    # scales to twice the int rows: a positive factor on every row moves no
    # reduced row, no point and no certificate.
    rows = [((1, 1, -1, 0), 0), ((0, 2, 1, -1), 0), ((1, -1, 0, 0), 1)]

    def two_thirds(rows):
        return [([Fraction(2, 3) * c for c in coeffs], Fraction(2, 3) * rhs)
                for coeffs, rhs in rows]

    ints, fractions = LinearProgram(4, sparse(rows)), build_program(4, two_thirds(rows))
    assert fractions.rows[0] == sparse([((2, 2, -2, 0), 0)])[0]
    for row, scaled in zip(ints.reduced, fractions.reduced, strict=True):
        assert_reduced_row(row, dense(scaled, 4), 4)
    assert lp_feasible(ints) == lp_feasible(fractions) is not None
    conflict = rows + [((2, 2, -2, 0), 1)]
    ints, fractions = LinearProgram(4, sparse(conflict)), build_program(4, two_thirds(conflict))
    for row, scaled in zip(ints.reduced, fractions.reduced, strict=True):
        assert_reduced_row(row, dense(scaled, 4), 4)
    assert ints.conflict == fractions.conflict == 3
    assert ints.certificate() == fractions.certificate()


def test_conflicting_corpus_pairs_get_int_certificates(valid_corpus):
    conflicts = 0
    for name, table in valid_corpus.items():
        for program in corpus_pair_programs(table):
            if program.conflict is None:
                continue
            y = program.certificate()
            assert all(type(w) is int for w in y.values()), name
            assert program.refuted_by(y), name
            conflicts += 1
            if name == "no_states" and program.n_vars == 2:
                # Over the atoms a and b, row 0 is C's 2a - 2b = 0 and row 1
                # the pair row a - b = +-1: y is -+(2a - 2b = 0) - 2 (row 1).
                assert program.conflict == 1 and abs(y[0]) == 1 and y[1] == -2
            elif name == "no_states":
                # Rows 0 and 1 are a + a = c and b + b = c; row 2 is the
                # pair row s(a) - s(b) = +-1 or its reverse.
                assert program.conflict == 2
                assert y[0] == -y[1] != 0 and y[2] != 0 and len(y) == 3
    assert conflicts >= 4


def test_factored_conflict_with_fraction_rows_gets_a_certificate():
    # The third row is 3/4 of the first minus 5/3 of the second, with its
    # rhs moved off 0, and is reduced only in the extension.  Scaled to
    # ints the rows are 6, 35 and 168 times these, and the third is 21
    # times the first minus 8 times the second, with rhs 84.
    first = (Fraction(1, 3), Fraction(1, 2), 0)
    second = (0, Fraction(2, 5), Fraction(-1, 7))
    third = tuple(Fraction(3, 4) * p - Fraction(5, 3) * q for p, q in zip(first, second))
    program = build_program(3, ((first, 0), (second, 0), (third, Fraction(1, 2))))
    assert program.rows[2] == sparse([((42, -49, 40), 84)])[0]
    factored = LinearProgram(3, program.rows[:2])
    extended = factored.extended(program.rows[2:])
    assert factored.conflict is None and extended.conflict == 2
    y = extended.certificate()
    assert y == {0: 21, 1: -8, 2: -1}
    assert program.refuted_by(y)
    assert lp_feasible(extended) is None


def test_conflicts_of_one_base_match_the_reference_combination():
    # A generated table with many infeasible pair rows, each in conflict
    # over the one factored cone.
    table = random_gea(random.Random(0), 12)
    cone = additivity_program(require_gea(table))
    assert (cone.n_vars, len(cone.pivots)) == (7, 6)
    reference = ReferenceEchelon.of(cone.rows, cone.n_vars)
    conflicts = 0
    for a in range(table.n):
        for b in range(table.n):
            if a == b:
                continue
            program = atom_pair_program(cone, a, b)
            if program.conflict is None:
                continue
            y = program.certificate()
            assert program.refuted_by(y)
            # The reference's combination has weight 1 on the conflicting
            # row; y is the same combination times -lcm of its denominators.
            combo = reference.extended(program.rows[-1:]).conflict
            scale = lcm(*(w.denominator for w in combo.values()))
            assert y == {i: int(-w * scale) for i, w in combo.items()}
            conflicts += 1
    assert conflicts > 50


@pytest.fixture
def pivots(monkeypatch):
    """The list of (row, col) of every phase-one pivot made while it is live.
    After each pivot every tableau row is primitive and positive at its
    basic column."""
    made = []
    real = lp._pivot

    def counted(tableau, basis, row, col):
        made.append((row, col))
        real(tableau, basis, row, col)
        assert all(gcd(*r.values()) == 1 for r in tableau)
        assert all(r[var] > 0 for r, var in zip(tableau, basis))

    monkeypatch.setattr(lp, "_pivot", counted)
    return made


def test_nonnegative_echelon_basis_needs_no_pivot(pivots, valid_corpus):
    # In variables (a, b, c) the reduced form reads a - c = 1, b + c = 1,
    # whose basic point (1, 1, 0) is already feasible.
    program = build_program(3, [((1, 1, 0), 2), ((0, 1, 1), 1)])
    assert lp_feasible(program) == [1, 1, 0]
    for table in valid_corpus.values():
        assert lp_feasible(additivity_program(require_gea(table))) is not None
    assert pivots == []


def test_pair_programs_pivot_at_most_the_cone_dimension(pivots, valid_corpus):
    # d = vars - rank is the dimension of the state cone {x >= 0 : Ax = 0}.
    most = {}
    for name, table in valid_corpus.items():
        cone = additivity_program(require_gea(table))
        d = cone.n_vars - len(cone.pivots)
        for program in pair_programs(table):
            pivots.clear()
            feasible = lp_feasible(program) is not None
            assert len(pivots) <= d, (name, d, pivots)
            key = name, feasible
            most[key] = max(most.get(key, 0), len(pivots))
    # The chain's witnesses are basic solutions of the echelon form itself.
    # A cube's pair LP is one row over its three atoms: where the row is
    # negative at its pivot, it leaves for its least negative column, one
    # pivot to a feasible basis.
    assert most["chain_c3", True] == 0
    assert most["cube8", True] == 1
