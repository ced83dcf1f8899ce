import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea import corpus
from gea.algebra import AlgebraTable, require_gea
from gea.errors import InputError
from gea.generate import random_population
from gea.represent import (DiagonalRep, build_representation, extract_states, operator_norm,
                           sampled_check, verify_injective, verify_morphism,
                           verify_order_reflecting)
from gea.states import (GeneralizedState, StateWitnessSet, order_determining_set,
                        separating_set)
from gea.lp import lp_feasible
from gea.states import additivity_program, state_from_solution
from reference import (FiniteVector, apply_operator, bounded_by, random_rational_vector,
                       vector_state)


def frac(x):
    return Fraction(x)


def single_state_set(goal, *rows):
    witnesses = StateWitnessSet(goal=goal)
    witnesses.states = [GeneralizedState.of(row) for row in rows]
    return witnesses


def search_rep(table, search=order_determining_set):
    gea = require_gea(table)
    return build_representation(gea, search(gea))


def state_rep(table, goal, *rows):
    return build_representation(require_gea(table), single_state_set(goal, *rows))


def diagonal_rep(*operators, zero=0):
    """A representation with these rational diagonals, over the lcm of all
    their denominators."""
    rows = [tuple(map(Fraction, op)) for op in operators]
    den = lcm(*(v.denominator for row in rows for v in row))
    elements = tuple(f"e{i}" for i in range(len(rows)))
    slots = tuple(f"s{i}" for i in range(len(rows[0])))
    return DiagonalRep(elements, zero, slots,
                       tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                             for row in rows), den)


# The Fraction forms of the self-checks, kept as the reference for the
# integer ones in gea.represent.

def reference_verify_morphism(rep, table):
    violations = []
    operators = rep.operators
    if operators[rep.zero] != tuple(Fraction(0) for _ in range(rep.m)):
        violations.append((rep.zero, rep.zero, rep.zero))
    for i, j, k in table.defined_sums():
        summed = tuple(x + y for x, y in zip(operators[i], operators[j]))
        if summed != operators[k]:
            violations.append((i, j, k))
    return not violations, tuple(violations)


def reference_verify_injective(rep):
    operators = rep.operators
    n = len(operators)
    for a in range(n):
        for b in range(a + 1, n):
            if operators[a] == operators[b]:
                return False, (a, b)
    return True, None


def reference_entrywise_leq(rep, a, b):
    return all(x <= y for x, y in zip(rep.operators[a], rep.operators[b]))


def reference_verify_order_reflecting(rep, table):
    order = require_gea(table).order
    for a in range(table.n):
        for b in range(table.n):
            if a != b and reference_entrywise_leq(rep, a, b) and not order.leq(a, b):
                return False, (a, b)
    return True, None


def reference_operator_norm(rep, a):
    entries = rep.operators[a]
    if not entries:
        return Fraction(0)
    norm = max(entries)
    argmax = entries.index(norm)
    image = apply_operator(rep, a, FiniteVector.basis(rep.m, argmax))
    assert image.norm_sq() == norm * norm
    return norm


class TestBuild:
    def test_excd_operators(self, excd):
        rep = search_rep(excd)
        assert rep.operators == (
            (frac(0), frac(0)), (frac(1), frac(0)), (frac(0), frac(1)))

    def test_chain_single_witness(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        assert rep.operators == ((frac(0),), (frac(1),), (frac(2),))

    def test_zero_state_builds_but_separates_nothing(self, diamond):
        rep = state_rep(diamond, "separate", (0, 0, 0, 0))
        ok, pair = verify_injective(rep)
        assert not ok and pair is not None

    def test_empty_witness_set_builds_zero_slot_rep(self, singleton):
        rep = search_rep(singleton)
        assert rep.m == 0
        assert verify_injective(rep) == (True, None)

    def test_non_additive_state_rejected(self, diamond):
        with pytest.raises(InputError):
            state_rep(diamond, "order", (0, 1, 1, 3))

    def test_slot_denominators_share_their_lcm(self, chain_c3):
        rep = state_rep(chain_c3, "order", ("0", "1/2", "1"), ("0", "1/3", "2/3"))
        assert rep.den == 6
        assert rep.diagonals == ((0, 0), (3, 2), (6, 4))
        assert rep.operators[2] == (Fraction(1), Fraction(2, 3))

    def test_non_positive_denominator_rejected(self):
        with pytest.raises(InputError):
            DiagonalRep(("0",), 0, (), ((),), 0)


class TestVerifyMorphism:
    def test_corpus_reps_pass(self, valid_corpus):
        for table in valid_corpus.values():
            rep = search_rep(table)
            assert verify_morphism(rep, table).passed

    def test_corrupted_entry_fails_with_witness(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        bad = list(rep.diagonals)
        bad[2] = (3 * rep.den,)  # top entry corrupted by +1
        corrupted = DiagonalRep(rep.elements, rep.zero, rep.slot_labels, tuple(bad), rep.den)
        check = verify_morphism(corrupted, chain_c3)
        assert not check.passed
        assert (1, 1, 2) in check.violations  # h + h = top

    def test_corrupted_zero_fails(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        bad = list(rep.diagonals)
        bad[0] = (rep.den,)
        corrupted = DiagonalRep(rep.elements, rep.zero, rep.slot_labels, tuple(bad), rep.den)
        assert not verify_morphism(corrupted, chain_c3).passed

    def test_singleton_rep_passes_vacuously(self, singleton):
        rep = search_rep(singleton)
        assert verify_morphism(rep, singleton).passed


class TestVerifyInjective:
    def test_excd_rep_is_injective(self, excd):
        rep = search_rep(excd)
        assert verify_injective(rep) == (True, None)

    def test_equal_value_state_found_by_lp(self, diamond):
        # ask the LP for a state with s(a) = s(b) and s(a) = 1
        program = additivity_program(diamond, [
            ({1: frac(1), 2: frac(-1)}, frac(0)),
            ({1: frac(1)}, frac(1)),
        ])
        solution = lp_feasible(program)
        state = state_from_solution(diamond, solution)
        assert state.values == (frac(0), frac(1), frac(1), frac(2))
        rep = state_rep(diamond, "separate", [str(v) for v in state.values])
        ok, pair = verify_injective(rep)
        assert not ok and pair == (1, 2)

    def test_first_colliding_pair_is_lexicographic(self):
        # Rows 1 and 2 collide first in index order, but (0, 3) comes first.
        rep = diagonal_rep((0, 0), (1, 2), (1, 2), (0, 0), (1, 2))
        assert verify_injective(rep) == (False, (0, 3))


class TestVerifyOrderReflecting:
    def test_excd_rep_reflects_order(self, excd):
        rep = search_rep(excd)
        assert verify_order_reflecting(rep, require_gea(excd)) == (True, None)

    def test_single_witness_on_diamond_fails(self, diamond):
        rep = state_rep(diamond, "order", (0, 1, 0, 1))
        ok, pair = verify_order_reflecting(rep, require_gea(diamond))
        assert not ok
        # the returned pair is a genuine violation
        a, b = pair
        assert reference_entrywise_leq(rep, a, b)
        # and (b, a) is among the violations: phi(b) <= phi(a) while b is not below a
        assert reference_entrywise_leq(rep, 2, 1)

    def test_singleton_rep_reflects_vacuously(self, singleton):
        rep = search_rep(singleton)
        assert verify_order_reflecting(rep, require_gea(singleton)) == (True, None)


def _checked_tables():
    tables = [corpus.load(name) for name in corpus.VALID]
    tables += [t for t in random_population(31, 30) if t.n > 1]
    out = []
    for table in tables:
        gea = require_gea(table)
        out.append((table, gea, order_determining_set(gea).states))
    return out


CHECKED_TABLES = _checked_tables()


@st.composite
def rational_reps(draw):
    """A table with random rational diagonals: each slot has its own
    denominator and is either a scaled witness state (additive) or random
    entries, some of them negative; then rows may be copied onto others, the
    zero operator may become nonzero, and the common denominator may carry a
    spare factor."""
    table, gea, states = draw(st.sampled_from(CHECKED_TABLES))
    n = table.n
    m = draw(st.integers(0, 4))
    columns = []
    for _ in range(m):
        den = draw(st.integers(1, 6))
        if states and draw(st.booleans()):
            state = draw(st.sampled_from(states))
            scale = Fraction(draw(st.integers(0, 5)), den)
            columns.append([v * scale for v in state.values])
        else:
            columns.append([Fraction(draw(st.integers(-2, 6)), den) for _ in range(n)])
    rows = [[column[a] for column in columns] for a in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[b] = list(rows[a])
    if m and draw(st.integers(0, 3)) == 0:
        rows[table.zero][draw(st.integers(0, m - 1))] = Fraction(1, draw(st.integers(1, 6)))
    den = lcm(*(v.denominator for row in rows for v in row)) * draw(st.sampled_from([1, 1, 2, 6]))
    rep = DiagonalRep(table.elements, table.zero, tuple(f"s{i}" for i in range(m)),
                      tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                            for row in rows), den)
    assert rep.operators == tuple(map(tuple, rows))
    return table, gea, rep


class TestIntegerChecksMatchFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(rational_reps())
    def test_verdicts_and_first_failures(self, case):
        table, gea, rep = case
        morphism = verify_morphism(rep, table)
        assert (morphism.passed, morphism.violations) == reference_verify_morphism(rep, table)
        assert verify_injective(rep) == reference_verify_injective(rep)
        assert verify_order_reflecting(rep, gea) == reference_verify_order_reflecting(rep, table)
        for a in range(table.n):
            assert operator_norm(rep, a) == reference_operator_norm(rep, a)

    def test_corpus_and_population_reps(self):
        for table, gea, _ in CHECKED_TABLES:
            for search in (order_determining_set, separating_set):
                rep = build_representation(gea, search(gea))
                morphism = verify_morphism(rep, table)
                assert (morphism.passed, morphism.violations) == \
                    reference_verify_morphism(rep, table)
                assert verify_injective(rep) == reference_verify_injective(rep)
                assert verify_order_reflecting(rep, gea) == \
                    reference_verify_order_reflecting(rep, table)
                assert [operator_norm(rep, a) for a in range(table.n)] == \
                    [reference_operator_norm(rep, a) for a in range(table.n)]


class TestNormsAndVectorStates:
    def test_chain_top_norm_is_two(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        assert operator_norm(rep, 2) == 2

    def test_zero_norm_is_zero(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        assert operator_norm(rep, 0) == 0

    def test_diamond_two_witness_top_norm(self, diamond):
        rep = state_rep(diamond, "order", (0, 1, 0, 1), (0, 0, 1, 1))
        assert operator_norm(rep, 3) == 1

    def test_vector_state_at_basis_vectors_recovers_witnesses(self, diamond):
        gea = require_gea(diamond)
        witnesses = order_determining_set(gea)
        rep = build_representation(gea, witnesses)
        for slot, state in enumerate(witnesses.states):
            basis = FiniteVector.basis(rep.m, slot)
            for a in range(diamond.n):
                assert vector_state(rep, basis, a) == state.values[a]

    def test_vector_state_of_zero_vector(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        assert vector_state(rep, FiniteVector((frac(0),)), 2) == 0

    def test_chain_unit_vector_value(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        assert vector_state(rep, FiniteVector((frac(1),)), 2) == 2

    def test_length_mismatch_rejected(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        with pytest.raises(InputError):
            vector_state(rep, FiniteVector((frac(1), frac(1))), 1)

    def test_boundedness_on_seeded_vectors(self, valid_corpus):
        rng = random.Random(5)
        for table in valid_corpus.values():
            rep = search_rep(table)
            for a in range(table.n):
                norm = operator_norm(rep, a)
                for _ in range(25):
                    assert bounded_by(rep, a, norm, random_rational_vector(rng, rep.m))


def fraction_sampled_check(rep, rng, count, norms):
    """Reference for sampled_check in Fractions, over every sampled vector.

    It reads the same single randbytes call, cut into m-byte vectors, so it
    checks the very vectors sampled_check checks."""
    m = rep.m
    data = rng.randbytes(len(rep.operators) * count * m)
    start = 0
    ok = True
    for a in range(len(rep.operators)):
        for _ in range(count):
            x = FiniteVector(tuple(data[start:start + m]))
            start += m
            if vector_state(rep, x, a) < 0 or not bounded_by(rep, a, norms[a], x):
                ok = False
    return ok


def norms_of(rep):
    return [operator_norm(rep, a) for a in range(len(rep.operators))]


def antichain(atoms):
    """Zero and `atoms` elements with no sum but those with zero."""
    n = atoms + 1
    sums = {(0, x): x for x in range(n)} | {(x, 0): x for x in range(n)}
    return AlgebraTable(("0",) + tuple(f"a{i}" for i in range(atoms)), 0, sums)


class TestSampledCheck:
    def agree(self, rep, norms, seed, count=20):
        expected = fraction_sampled_check(rep, random.Random(seed), count, norms)
        assert sampled_check(rep, random.Random(seed), count, norms) == expected
        return expected

    def test_antichain_representations(self):
        for atoms, seed in ((16, 0), (24, 1)):
            rep = search_rep(antichain(atoms))
            assert rep.m == atoms
            assert self.agree(rep, norms_of(rep), seed)

    def test_zero_slots_and_zero_vectors(self, singleton, chain_c3):
        rep = search_rep(singleton)
        assert rep.m == 0
        assert self.agree(rep, norms_of(rep), 2)
        rep = search_rep(chain_c3)
        assert self.agree(rep, norms_of(rep), 2, count=0)

    def test_entries_above_two_to_the_64(self):
        big = 2 ** 64
        rep = diagonal_rep((0, 0, 0), (big + 3, 1, big), (2 * big + 6, 2, 2 * big),
                           (Fraction(big, 3), Fraction(1, 3), 5))
        for seed in range(3):
            assert self.agree(rep, norms_of(rep), seed)

    def test_negative_entry_in_the_last_element_fails(self):
        # |-1/3| is below the norm 1/2, so only the positivity test can fail,
        # and only after every earlier element has passed.
        rep = diagonal_rep((0, 0, 0), ("1/3", "2/7", "1/5"), ("1/2", "1/7", "0"),
                           ("1/5", "1/2", "-1/3"))
        for seed in range(5):
            assert not self.agree(rep, norms_of(rep), seed)

    def test_corpus_representations(self, valid_corpus):
        for table in valid_corpus.values():
            for search in (order_determining_set, separating_set):
                rep = search_rep(table, search)
                for seed in (0, 1, 7):
                    assert self.agree(rep, norms_of(rep), seed)

    def test_fractional_entries(self):
        rep = diagonal_rep((0, 0, 0), ("1/3", "2/7", "0"), ("2/3", "4/7", "5/11"),
                           ("1", "6/7", "5/11"))
        for seed in range(5):
            assert self.agree(rep, norms_of(rep), seed)

    def test_negative_entry_fails(self):
        # |-1/3| is below the norm 1/2, so only the positivity test can fail.
        rep = diagonal_rep((0, 0), ("1/3", "2/7"), ("-1/3", "1/2"))
        for seed in range(5):
            assert not self.agree(rep, norms_of(rep), seed)

    def test_norm_below_largest_entry_fails(self):
        rep = diagonal_rep((0, 0), ("1/3", "2/7"))
        for seed in range(5):
            assert not self.agree(rep, [Fraction(0), Fraction(1, 4)], seed)
            assert self.agree(rep, [Fraction(0), Fraction(3, 8)], seed)

    def test_verdict_depends_on_the_drawn_vector(self):
        # One vector per element; the second fails iff its second coordinate
        # exceeds twice its first, so the seeds give both verdicts and the
        # reference agrees only if it reads the same bytes in the same order.
        rep = diagonal_rep((0, 0), ("1", "-1/4"))
        verdicts = [self.agree(rep, norms_of(rep), seed, count=1) for seed in range(20)]
        assert True in verdicts and False in verdicts


class TestRoundTrip:
    def test_extract_states_round_trips_corpus(self, valid_corpus):
        for table in valid_corpus.values():
            gea = require_gea(table)
            for search in (order_determining_set, separating_set):
                witnesses = search(gea)
                rep = build_representation(gea, witnesses)
                recovered = extract_states(rep)
                assert [s.values for s in recovered] == [s.values for s in witnesses.states]

    def test_zero_rep_recovers_zero_states(self, diamond):
        rep = state_rep(diamond, "separate", (0, 0, 0, 0))
        assert [s.values for s in extract_states(rep)] == [(frac(0),) * 4]


class TestPositivityAndDiagonalOrder:
    def test_entries_nonnegative_and_forms_nonnegative(self, valid_corpus):
        rng = random.Random(11)
        for table in valid_corpus.values():
            rep = search_rep(table)
            for a in range(table.n):
                assert all(entry >= 0 for entry in rep.operators[a])
                for _ in range(100):
                    x = random_rational_vector(rng, rep.m)
                    assert vector_state(rep, x, a) >= 0

    def test_entrywise_order_matches_quadratic_forms(self, diamond):
        rep = search_rep(diamond)
        rng = random.Random(13)
        for a in range(diamond.n):
            for b in range(diamond.n):
                diff_nonneg = all(
                    vector_state(rep, FiniteVector.basis(rep.m, s), b)
                    >= vector_state(rep, FiniteVector.basis(rep.m, s), a)
                    for s in range(rep.m))
                sampled = all(
                    vector_state(rep, x, b) >= vector_state(rep, x, a)
                    for x in (random_rational_vector(rng, rep.m) for _ in range(100)))
                assert reference_entrywise_leq(rep, a, b) == diff_nonneg
                if diff_nonneg:
                    assert sampled

    def test_apply_operator_scales_coordinates(self, chain_c3):
        rep = state_rep(chain_c3, "order", (0, 1, 2))
        image = apply_operator(rep, 2, FiniteVector((Fraction(3, 2),)))
        assert image.coords == (Fraction(3),)
