import random
from fractions import Fraction

import pytest

from gea.errors import InputError
from gea.represent import (DiagonalRep, FiniteVector, apply_operator, bounded_by,
                           build_representation, entrywise_leq, extract_states,
                           operator_norm, random_rational_vector, sampled_check,
                           vector_state, verify_injective, verify_morphism,
                           verify_order_reflecting)
from gea.states import (GeneralizedState, StateWitnessSet, order_determining_set,
                        separating_set)
from gea.lp import lp_feasible
from gea.states import additivity_program, state_from_solution


def frac(x):
    return Fraction(x)


def single_state_set(goal, *rows):
    witnesses = StateWitnessSet(goal=goal)
    witnesses.states = [GeneralizedState(tuple(map(frac, row))) for row in rows]
    return witnesses


class TestBuild:
    def test_excd_operators(self, excd):
        rep = build_representation(excd, order_determining_set(excd))
        assert rep.operators == (
            (frac(0), frac(0)), (frac(1), frac(0)), (frac(0), frac(1)))

    def test_chain_single_witness(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        assert rep.operators == ((frac(0),), (frac(1),), (frac(2),))

    def test_zero_state_builds_but_separates_nothing(self, diamond):
        rep = build_representation(diamond, single_state_set("separate", (0, 0, 0, 0)))
        ok, pair = verify_injective(rep)
        assert not ok and pair is not None

    def test_empty_witness_set_builds_zero_slot_rep(self, singleton):
        rep = build_representation(singleton, order_determining_set(singleton))
        assert rep.m == 0
        assert verify_injective(rep) == (True, None)

    def test_non_additive_state_rejected(self, diamond):
        with pytest.raises(InputError):
            build_representation(diamond, single_state_set("order", (0, 1, 1, 3)))


class TestVerifyMorphism:
    def test_corpus_reps_pass(self, valid_corpus):
        for table in valid_corpus.values():
            rep = build_representation(table, order_determining_set(table))
            assert verify_morphism(rep, table).passed

    def test_corrupted_entry_fails_with_witness(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        bad_ops = list(rep.operators)
        bad_ops[2] = (frac(3),)  # top entry corrupted by +1
        corrupted = DiagonalRep(rep.elements, rep.zero, rep.slot_labels, tuple(bad_ops))
        check = verify_morphism(corrupted, chain_c3)
        assert not check.passed
        assert (1, 1, 2) in check.violations  # h + h = top

    def test_corrupted_zero_fails(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        bad_ops = list(rep.operators)
        bad_ops[0] = (frac(1),)
        corrupted = DiagonalRep(rep.elements, rep.zero, rep.slot_labels, tuple(bad_ops))
        assert not verify_morphism(corrupted, chain_c3).passed

    def test_singleton_rep_passes_vacuously(self, singleton):
        rep = build_representation(singleton, order_determining_set(singleton))
        assert verify_morphism(rep, singleton).passed


class TestVerifyInjective:
    def test_excd_rep_is_injective(self, excd):
        rep = build_representation(excd, order_determining_set(excd))
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
        rep = build_representation(
            diamond, single_state_set("separate", [str(v) for v in state.values]))
        ok, pair = verify_injective(rep)
        assert not ok and pair == (1, 2)


class TestVerifyOrderReflecting:
    def test_excd_rep_reflects_order(self, excd):
        rep = build_representation(excd, order_determining_set(excd))
        assert verify_order_reflecting(rep, excd) == (True, None)

    def test_single_witness_on_diamond_fails(self, diamond):
        rep = build_representation(diamond, single_state_set("order", (0, 1, 0, 1)))
        ok, pair = verify_order_reflecting(rep, diamond)
        assert not ok
        # the returned pair is a genuine violation
        a, b = pair
        assert entrywise_leq(rep, a, b)
        # and (b, a) is among the violations: phi(b) <= phi(a) while b is not below a
        assert entrywise_leq(rep, 2, 1)

    def test_singleton_rep_reflects_vacuously(self, singleton):
        rep = build_representation(singleton, order_determining_set(singleton))
        assert verify_order_reflecting(rep, singleton) == (True, None)


class TestNormsAndVectorStates:
    def test_chain_top_norm_is_two(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        assert operator_norm(rep, 2) == 2

    def test_zero_norm_is_zero(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        assert operator_norm(rep, 0) == 0

    def test_diamond_two_witness_top_norm(self, diamond):
        rep = build_representation(
            diamond, single_state_set("order", (0, 1, 0, 1), (0, 0, 1, 1)))
        assert operator_norm(rep, 3) == 1

    def test_vector_state_at_basis_vectors_recovers_witnesses(self, diamond):
        witnesses = order_determining_set(diamond)
        rep = build_representation(diamond, witnesses)
        for slot, state in enumerate(witnesses.states):
            basis = FiniteVector.basis(rep.m, slot)
            for a in range(diamond.n):
                assert vector_state(rep, basis, a) == state.values[a]

    def test_vector_state_of_zero_vector(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        assert vector_state(rep, FiniteVector((frac(0),)), 2) == 0

    def test_chain_unit_vector_value(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        assert vector_state(rep, FiniteVector((frac(1),)), 2) == 2

    def test_length_mismatch_rejected(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        with pytest.raises(InputError):
            vector_state(rep, FiniteVector((frac(1), frac(1))), 1)

    def test_boundedness_on_seeded_vectors(self, valid_corpus):
        rng = random.Random(5)
        for table in valid_corpus.values():
            rep = build_representation(table, order_determining_set(table))
            for a in range(table.n):
                norm = operator_norm(rep, a)
                for _ in range(25):
                    assert bounded_by(rep, a, norm, random_rational_vector(rng, rep.m))


def fraction_sampled_check(rep, rng, count, norms):
    """Reference for sampled_check in Fractions, over every sampled vector."""
    ok = True
    for a in range(len(rep.operators)):
        for _ in range(count):
            x = random_rational_vector(rng, rep.m)
            if vector_state(rep, x, a) < 0 or not bounded_by(rep, a, norms[a], x):
                ok = False
    return ok


def diagonal_rep(*operators):
    elements = tuple(f"e{i}" for i in range(len(operators)))
    slots = tuple(f"s{i}" for i in range(len(operators[0])))
    return DiagonalRep(elements, 0, slots,
                       tuple(tuple(map(Fraction, op)) for op in operators))


def norms_of(rep):
    return [operator_norm(rep, a) for a in range(len(rep.operators))]


class TestSampledCheck:
    def agree(self, rep, norms, seed, count=20):
        expected = fraction_sampled_check(rep, random.Random(seed), count, norms)
        assert sampled_check(rep, random.Random(seed), count, norms) == expected
        return expected

    def test_corpus_representations(self, valid_corpus):
        for table in valid_corpus.values():
            for search in (order_determining_set, separating_set):
                rep = build_representation(table, search(table))
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


class TestRoundTrip:
    def test_extract_states_round_trips_corpus(self, valid_corpus):
        for table in valid_corpus.values():
            for search in (order_determining_set, separating_set):
                witnesses = search(table)
                rep = build_representation(table, witnesses)
                recovered = extract_states(rep)
                assert [s.values for s in recovered] == [s.values for s in witnesses.states]

    def test_zero_rep_recovers_zero_states(self, diamond):
        rep = build_representation(diamond, single_state_set("separate", (0, 0, 0, 0)))
        assert [s.values for s in extract_states(rep)] == [(frac(0),) * 4]


class TestPositivityAndDiagonalOrder:
    def test_entries_nonnegative_and_forms_nonnegative(self, valid_corpus):
        rng = random.Random(11)
        for table in valid_corpus.values():
            rep = build_representation(table, order_determining_set(table))
            for a in range(table.n):
                assert all(entry >= 0 for entry in rep.operators[a])
                for _ in range(100):
                    x = random_rational_vector(rng, rep.m)
                    assert vector_state(rep, x, a) >= 0

    def test_entrywise_order_matches_quadratic_forms(self, diamond):
        rep = build_representation(diamond, order_determining_set(diamond))
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
                assert entrywise_leq(rep, a, b) == diff_nonneg
                if entrywise_leq(rep, a, b):
                    assert sampled

    def test_apply_operator_scales_coordinates(self, chain_c3):
        rep = build_representation(chain_c3, single_state_set("order", (0, 1, 2)))
        image = apply_operator(rep, 2, FiniteVector((Fraction(3, 2),)))
        assert image.coords == (Fraction(3),)
