from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea.algebra import induced_order
from gea.errors import ContractError
from gea.lp import Echelon, LinearProgram, basic_solution_feasible, lp_feasible
from gea.states import additivity_program


def test_single_pinned_variable():
    program = LinearProgram.build(1, [((1,), 1)])
    assert lp_feasible(program) == [Fraction(1)]


def test_sign_contradiction_is_infeasible():
    program = LinearProgram.build(2, [((1, 1), 1), ((1, -1), 3)])
    assert lp_feasible(program) is None
    assert basic_solution_feasible(program) is None


def test_excd_normalized_witness_program(excd):
    program = additivity_program(
        excd, [({1: Fraction(1), 2: Fraction(-1)}, Fraction(1))])
    solution = lp_feasible(program)
    assert solution == [Fraction(1), Fraction(0)]
    assert basic_solution_feasible(program) is not None


def test_empty_program_is_feasible_at_zero():
    program = LinearProgram.build(3, [])
    assert lp_feasible(program) == [Fraction(0)] * 3


def test_zero_rows_with_nonzero_rhs_infeasible():
    program = LinearProgram.build(2, [((0, 0), 1)])
    assert lp_feasible(program) is None
    assert basic_solution_feasible(program) is None


def test_solution_is_exact_on_awkward_fractions():
    program = LinearProgram.build(
        2, [((Fraction(1, 3), Fraction(1, 7)), Fraction(2, 21))])
    solution = lp_feasible(program)
    assert solution is not None
    assert program.satisfied_by(solution)


def _pair_programs(table):
    order = induced_order(table)
    for a, b in order.pairs_not_leq():
        yield additivity_program(
            table, [({a: Fraction(1), b: Fraction(-1)}, Fraction(1))])
    for a in range(table.n):
        for b in range(a + 1, table.n):
            for lo, hi in ((a, b), (b, a)):
                yield additivity_program(
                    table, [({lo: Fraction(1), hi: Fraction(-1)}, Fraction(1))])


def test_simplex_matches_oracle_on_corpus_pairs(valid_corpus):
    checked = 0
    for name, table in valid_corpus.items():
        if table.n > 6:
            continue
        for program in _pair_programs(table):
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
    program = LinearProgram.build(n, rows)
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
    return LinearProgram.build(n, rows), inconsistent


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
        assert program.refuted_by(echelon.conflict)
    else:
        kept = [program.rows[i] for i in echelon.kept]
        assert Echelon.of(kept, program.n_vars).rank == len(kept)


def test_inconsistent_pair_row_settled_by_elimination():
    # a + a = c and b + b = c force s(a) = s(b); s(a) - s(b) = 1 contradicts it.
    program = LinearProgram.build(3, [((2, 0, -1), 0), ((0, 2, -1), 0), ((1, -1, 0), 1)])
    echelon = Echelon.of(program.rows, 3)
    assert echelon.kept == [0, 1]
    assert echelon.conflict is not None and program.refuted_by(echelon.conflict)
    assert lp_feasible(program) is None


def test_refuted_by_checks_the_combination():
    program = LinearProgram.build(2, [((1, 1), 1), ((2, 2), 3)])
    assert program.refuted_by({0: Fraction(2), 1: Fraction(-1)})
    assert not program.refuted_by({0: Fraction(1)})
    assert not program.refuted_by({0: Fraction(2), 1: Fraction(-2)})


def test_wrong_inconsistency_claim_is_caught():
    program = LinearProgram.build(2, [((1, 0), 1), ((0, 1), 1)])
    factored = Echelon.of(program.rows[:1], 2)
    factored.conflict = {0: Fraction(1)}
    with pytest.raises(AssertionError):
        lp_feasible(program, factored)


def test_factored_prefix_gives_the_unfactored_answer():
    program = LinearProgram.build(3, [((1, 1, -1), 0), ((2, 2, -2), 0), ((1, -1, 0), 1)])
    factored = Echelon.of(program.rows[:2], 3)
    assert factored.kept == [0]
    assert lp_feasible(program, factored) == lp_feasible(program)
    assert factored.rank == 1 and len(factored.source) == 2  # left unchanged


def test_factorization_must_match_leading_rows():
    program = LinearProgram.build(2, [((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(ContractError):
        lp_feasible(program, Echelon.of(program.rows[1:], 2))
