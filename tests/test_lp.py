import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gea
from gea import lp
from gea.errors import ContractError
from gea.generate import random_gea
from gea.lp import Echelon, LinearProgram, lp_feasible
from gea.states import additivity_program
from reference import basic_solution_feasible, pair_programs


def build_program(n_vars, rows):
    """A LinearProgram whose coefficients and right-hand sides are all
    Fractions, as the rows of a hand-written program may be."""
    return LinearProgram(n_vars, tuple((tuple(Fraction(c) for c in coeffs), Fraction(rhs))
                                       for coeffs, rhs in rows))


# Reference solver: the same elimination and phase-one simplex in Fraction
# arithmetic, with every echelon row normalized to 1 at its pivot and every
# tableau row to 1 at its basic column.  The integer solver must take the
# same pivot path, so it must return the identical point and keep the same
# rows.

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

    @property
    def rank(self):
        return len(self.kept)

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
        coeffs, rhs = self.source[index]
        v = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
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


def _ref_pivot(tableau, cost, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    support = _ref_support(tableau[row])
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = _ref_sub(other, other[col], support)
    if cost[col]:
        cost[:] = _ref_sub(cost, cost[col], support)
    basis[row] = col


def reference_lp_feasible(program, factored=None) -> Optional[list]:
    """Phase one from the echelon basis with one auxiliary variable x0 and
    Bland's rule, in Fractions."""
    n = program.n_vars
    if factored is None:
        factored = ReferenceEchelon(n)
    echelon = factored.extended(program.rows[len(factored.source):])
    if echelon.conflict is not None:
        assert program.refuted_by(echelon.conflict)
        return None
    # Each echelon row is 1 at its pivot; x0 (column n) enters with -1 every
    # row whose rhs is negative.
    basis = echelon.pivots[:]
    tableau = [row[:-1] + [Fraction(-1 if row[-1] < 0 else 0), row[-1]]
               for row in echelon.rows]
    infeasible = [i for i, row in enumerate(tableau) if row[-1] < 0]
    if infeasible:
        leaving = min(infeasible, key=lambda i: (tableau[i][-1], basis[i]))
        cost = [Fraction(0)] * n + [Fraction(1), Fraction(0)]
        _ref_pivot(tableau, cost, basis, leaving, n)
        while True:
            entering = next((j for j in range(n + 1) if cost[j] < 0), None)
            if entering is None:
                break
            eligible = [i for i, row in enumerate(tableau) if row[entering] > 0]
            assert eligible
            pivot_row = min(eligible, key=lambda i: (
                tableau[i][-1] / tableau[i][entering], basis[i]))
            _ref_pivot(tableau, cost, basis, pivot_row, entering)
        if cost[-1] != 0:
            return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    assert program.satisfied_by(x)
    return x


def test_single_pinned_variable():
    program = build_program(1, [((1,), 1)])
    assert lp_feasible(program) == [Fraction(1)]


def test_sign_contradiction_is_infeasible():
    program = build_program(2, [((1, 1), 1), ((1, -1), 3)])
    assert lp_feasible(program) is None
    assert basic_solution_feasible(program) is None


def test_excd_normalized_witness_program(excd):
    program = additivity_program(
        excd, [({1: Fraction(1), 2: Fraction(-1)}, Fraction(1))])
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
    assert program.satisfied_by(solution)


def test_simplex_matches_oracle_on_corpus_pairs(valid_corpus):
    checked = 0
    for name, table in valid_corpus.items():
        if table.n > 6:
            continue
        for program in pair_programs(table):
            simplex = lp_feasible(program)
            oracle = basic_solution_feasible(program)
            assert (simplex is None) == (oracle is None), (name, program)
            checked += 1
    assert checked > 30


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
        assert program.satisfied_by(simplex)
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
        assert program.satisfied_by(simplex)
    echelon = Echelon.of(program.rows, program.n_vars)
    if inconsistent:
        assert echelon.conflict is not None
    if echelon.conflict is not None:
        assert program.refuted_by(echelon.certificate())
    else:
        kept = [program.rows[i] for i in echelon.kept]
        assert Echelon.of(kept, program.n_vars).rank == len(kept)


def test_inconsistent_pair_row_settled_by_elimination():
    # a + a = c and b + b = c force s(a) = s(b); s(a) - s(b) = 1 contradicts it.
    program = build_program(3, [((2, 0, -1), 0), ((0, 2, -1), 0), ((1, -1, 0), 1)])
    echelon = Echelon.of(program.rows, 3)
    assert echelon.kept == [0, 1]
    assert echelon.conflict == 2
    assert echelon.certificate() == {0: 1, 1: -1, 2: -2}
    assert lp_feasible(program) is None


def test_refuted_by_checks_the_combination():
    program = build_program(2, [((1, 1), 1), ((2, 2), 3)])
    assert program.refuted_by({0: Fraction(2), 1: Fraction(-1)})
    assert not program.refuted_by({0: Fraction(1)})
    assert not program.refuted_by({0: Fraction(2), 1: Fraction(-2)})


def test_wrong_inconsistency_claim_is_caught():
    program = build_program(2, [((1, 0), 1), ((0, 1), 1)])
    factored = Echelon.of(program.rows[:1], 2)
    factored.conflict = 0  # row 0 is consistent and kept
    with pytest.raises(AssertionError):
        lp_feasible(program, factored)


# Both exact rechecks made to fail, in an interpreter that strips assert
# statements: a feasible program and an inconsistent one must still raise.
_FAILED_RECHECKS = """
import sys
from gea.lp import LinearProgram, lp_feasible
if not sys.flags.optimize:
    sys.exit("assert statements are not stripped")
LinearProgram.satisfied_by = lambda self, x: False
LinearProgram.refuted_by = lambda self, y: False
for rows in ((((1,), 1),), (((1,), 1), ((1,), 2))):
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
    program = build_program(3, [((1, 1, -1), 0), ((2, 2, -2), 0), ((1, -1, 0), 1)])
    factored = Echelon.of(program.rows[:2], 3)
    assert factored.kept == [0]
    assert lp_feasible(program, factored) == lp_feasible(program)
    assert factored.rank == 1 and len(factored.source) == 2  # left unchanged


def test_factorization_must_match_leading_rows():
    program = build_program(2, [((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(ContractError):
        lp_feasible(program, Echelon.of(program.rows[1:], 2))


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


@settings(max_examples=150, deadline=None)
@given(rational_programs(), st.data())
def test_integer_solver_takes_the_reference_pivot_path(program, data):
    echelon = Echelon.of(program.rows, program.n_vars)
    reference = ReferenceEchelon.of(program.rows, program.n_vars)
    assert echelon.kept == reference.kept
    assert echelon.pivots == reference.pivots
    assert (echelon.conflict is None) == (reference.conflict is None)
    if echelon.conflict is not None:
        assert program.refuted_by(echelon.certificate())
    for row, ref_row, col in zip(echelon.rows, reference.rows, echelon.pivots):
        assert row[col] > 0
        assert [Fraction(v, row[col]) for v in row] == ref_row
    x = lp_feasible(program)
    assert x == reference_lp_feasible(program)
    assert x is None or all(type(v) is Fraction for v in x)
    lead = data.draw(st.integers(min_value=0, max_value=len(program.rows)))
    factored = Echelon.of(program.rows[:lead], program.n_vars)
    assert lp_feasible(program, factored) == x
    extended = factored.extended(program.rows[lead:])
    assert extended.conflict == echelon.conflict
    if extended.conflict is not None:
        assert program.refuted_by(extended.certificate())


def test_integer_solver_matches_reference_on_wider_programs():
    # More columns than rows leave many vertices, so a wrong cost row or a
    # wrong tie rule moves the returned point; at this size that happens on
    # about one program in a hundred, too rarely for the hypothesis test.
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


def test_integer_solver_matches_reference_on_corpus_pairs(valid_corpus):
    for name, table in valid_corpus.items():
        for program in pair_programs(table):
            assert lp_feasible(program) == reference_lp_feasible(program), name


def test_scaled_rows_carry_their_scale_into_the_certificate():
    # x = 0 twice, then 2x = 1/2: the third row enters the elimination as
    # 4x = 1, but the certificate weighs the original rows, 2 * (x = 0)
    # - (2x = 1/2).
    program = build_program(1, [((1,), 0), ((1,), 0), ((2,), Fraction(1, 2))])
    echelon = Echelon.of(program.rows, 1)
    assert echelon.kept == [0]
    assert echelon.conflict == 2
    assert echelon.certificate() == {0: 2, 2: -1}
    assert program.refuted_by(echelon.certificate())
    assert lp_feasible(program) is None


def test_int_row_enters_the_elimination_as_it_is():
    row = lp._integral((2, 0, -4), 6)
    assert row == [2, 0, -4, 6]
    assert all(type(v) is int for v in row)


def test_mixed_fraction_row_is_scaled_by_the_lcm_of_its_denominators():
    row = lp._integral((Fraction(1, 2), 3, Fraction(-2, 3)), Fraction(5, 4))
    assert row == [6, 36, -8, 15]
    assert all(type(v) is int for v in row)


def test_int_and_fraction_rows_share_one_pivot_path():
    # The same program with int rows and with Fraction rows: the integer
    # rows are no longer rescaled, and the echelon, the point and the
    # certificate must not change.
    rows = [((1, 1, -1, 0), 0), ((0, 2, 1, -1), 0), ((1, -1, 0, 0), 1)]
    ints = LinearProgram(4, tuple(rows))
    fractions = build_program(4, rows)
    for factored_rows in (0, 2):
        i_echelon = Echelon.of(ints.rows[:factored_rows], 4)
        f_echelon = Echelon.of(fractions.rows[:factored_rows], 4)
        assert i_echelon.rows == f_echelon.rows
        assert lp_feasible(ints, i_echelon) == lp_feasible(fractions, f_echelon)
    conflict = rows + [((2, 2, -2, 0), 1)]
    i_echelon = Echelon.of(conflict, 4)
    f_echelon = Echelon.of(build_program(4, conflict).rows, 4)
    assert i_echelon.rows == f_echelon.rows and i_echelon.conflict == 3
    assert i_echelon.certificate() == f_echelon.certificate()


def test_conflicting_corpus_pairs_get_int_certificates(valid_corpus):
    conflicts = 0
    for name, table in valid_corpus.items():
        for program in pair_programs(table):
            echelon = Echelon.of(program.rows, program.n_vars)
            if echelon.conflict is None:
                continue
            y = echelon.certificate()
            assert all(type(w) is int for w in y.values()), name
            assert program.refuted_by(y), name
            conflicts += 1
            if name == "no_states":
                # Rows 0 and 1 are a + a = c and b + b = c; row 2 is the
                # pair row s(a) - s(b) = +-1 or its reverse.
                assert echelon.conflict == 2
                assert y[0] == -y[1] != 0 and y[2] != 0 and len(y) == 3
    assert conflicts >= 2


def test_factored_conflict_with_fraction_rows_gets_a_certificate():
    # The third row is 3/4 of the first minus 5/3 of the second, with its
    # rhs moved off 0, and is reduced only in the extension.
    first = (Fraction(1, 3), Fraction(1, 2), 0)
    second = (0, Fraction(2, 5), Fraction(-1, 7))
    third = tuple(Fraction(3, 4) * p - Fraction(5, 3) * q for p, q in zip(first, second))
    program = LinearProgram(3, ((first, 0), (second, 0), (third, Fraction(1, 2))))
    factored = Echelon.of(program.rows[:2], 3)
    extended = factored.extended(program.rows[2:])
    assert factored.conflict is None and extended.conflict == 2
    y = extended.certificate()
    assert all(type(w) is int for w in y.values())
    assert program.refuted_by(y)
    assert y[0] * 4 == -y[2] * 3 and y[1] * 3 == y[2] * 5
    assert lp_feasible(program, factored) is None


def test_conflicts_of_one_base_factor_the_certificate_system_once(monkeypatch):
    # A generated table with many infeasible pair rows: every conflict over
    # the one factored cone solves the same transposed kept-row system.
    table = random_gea(random.Random(0), 12)
    cone = additivity_program(table)
    base = Echelon.of(cone.rows, cone.n_vars)
    reference = ReferenceEchelon.of(cone.rows, cone.n_vars)
    factorizations = []
    real_of = Echelon.of

    def counted(rows, n_cols):
        factorizations.append(n_cols)
        return real_of(rows, n_cols)

    monkeypatch.setattr(Echelon, "of", staticmethod(counted))
    conflicts = 0
    for a in range(table.n):
        for b in range(table.n):
            if a == b:
                continue
            program = additivity_program(table, [({a: 1, b: -1}, 1)])
            echelon = base.extended(program.rows[-1:])
            if echelon.conflict is None:
                continue
            y = echelon.certificate()
            assert program.refuted_by(y)
            # The reference's combination has weight 1 on the conflicting
            # row; y is the same combination times -lcm of its denominators.
            combo = reference.extended(program.rows[-1:]).conflict
            scale = lcm(*(w.denominator for w in combo.values()))
            assert y == {i: int(-w * scale) for i, w in combo.items()}
            conflicts += 1
    assert conflicts > 50
    assert factorizations == [2 * base.rank]


@pytest.fixture
def pivots(monkeypatch):
    """The list of (row, col) of every phase-one pivot made while it is live."""
    made = []
    real = lp._pivot

    def counted(tableau, cost, basis, row, col):
        made.append((row, col))
        real(tableau, cost, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", counted)
    return made


def test_nonnegative_echelon_basis_needs_no_pivot(pivots, valid_corpus):
    # In variables (a, b, c) the reduced form reads a - c = 1, b + c = 1,
    # whose basic point (1, 1, 0) is already feasible.
    program = build_program(3, [((1, 1, 0), 2), ((0, 1, 1), 1)])
    assert lp_feasible(program) == [1, 1, 0]
    for table in valid_corpus.values():
        assert lp_feasible(additivity_program(table)) is not None
    assert pivots == []


def test_pair_programs_pivot_at_most_the_cone_dimension(pivots, valid_corpus):
    # d = vars - rank is the dimension of the state cone {x >= 0 : Ax = 0}.
    most = {}
    for name, table in valid_corpus.items():
        cone = additivity_program(table)
        d = cone.n_vars - Echelon.of(cone.rows, cone.n_vars).rank
        for program in pair_programs(table):
            pivots.clear()
            feasible = lp_feasible(program) is not None
            assert len(pivots) <= d, (name, d, pivots)
            key = name, feasible
            most[key] = max(most.get(key, 0), len(pivots))
    # The chain's witnesses are basic solutions of the echelon form itself.
    assert most["chain_c3", True] == 0
    assert most["cube8", True] == 3
