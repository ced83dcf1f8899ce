from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea import corpus
from gea.algebra import induced_order, require_gea
from gea.errors import ContractError, InputError
from gea import states
from gea.generate import random_population
from gea.lp import lp_feasible
from gea.states import (GeneralizedState, StateWitnessSet, additivity_program, bound_constant,
                        find_order_witness, find_separating_state, normalize_state,
                        order_determining_set, separating_set, state_from_solution)


def values(state):
    return tuple(str(v) for v in state.values)


class TestOrderWitness:
    def test_excd_pair(self, excd):
        witness = find_order_witness(1, 2, excd)
        assert values(witness) == ("0", "1", "0")

    def test_diamond_pair_respects_additivity(self, diamond):
        witness = find_order_witness(1, 2, diamond)
        assert values(witness) == ("0", "1", "0", "1")
        # a + b = 1 forces s(1) = s(a) + s(b)
        assert witness.values[3] == witness.values[1] + witness.values[2]

    def test_comparable_pair_is_contract_error(self, chain_c3):
        with pytest.raises(ContractError):
            find_order_witness(1, 2, chain_c3)  # h <= 1

    def test_reflexive_pair_is_contract_error(self, chain_c3):
        with pytest.raises(ContractError):
            find_order_witness(1, 1, chain_c3)

    def test_glued_atoms_have_no_witness(self, no_states):
        assert find_order_witness(1, 2, no_states) is None


class TestSeparatingState:
    def test_excd_pair(self, excd):
        assert find_separating_state(1, 2, excd) is not None

    def test_chain_uses_second_normalization(self, chain_c3):
        witness = find_separating_state(1, 2, chain_c3)
        assert values(witness) == ("0", "1", "2")

    def test_same_element_is_contract_error(self, excd):
        with pytest.raises(ContractError):
            find_separating_state(1, 1, excd)

    def test_glued_atoms_cannot_be_separated(self, no_states):
        assert find_separating_state(1, 2, no_states) is None


class TestWitnessSets:
    def test_excd_order_set_has_two_witnesses(self, excd):
        witnesses = order_determining_set(require_gea(excd))
        assert witnesses.ok
        assert len(witnesses.states) == 2
        assert (1, 2) in witnesses.provenance and (2, 1) in witnesses.provenance

    def test_diamond_order_set_is_small(self, diamond):
        witnesses = order_determining_set(require_gea(diamond))
        assert witnesses.ok
        order = induced_order(diamond)
        assert len(witnesses.states) <= len(order.pairs_not_leq())

    def test_singleton_order_set_is_empty(self, singleton):
        witnesses = order_determining_set(require_gea(singleton))
        assert witnesses.ok and witnesses.states == []

    def test_chain_separates_with_one_state_after_reuse(self, chain_c3):
        witnesses = separating_set(require_gea(chain_c3))
        assert witnesses.ok
        assert [values(s) for s in witnesses.states] == [("0", "1", "2")]

    def test_no_states_order_failure_names_the_pair(self, no_states):
        witnesses = order_determining_set(require_gea(no_states))
        assert not witnesses.ok
        assert (1, 2) in witnesses.failures

    def test_no_states_separation_failure(self, no_states):
        witnesses = separating_set(require_gea(no_states))
        assert not witnesses.ok
        assert witnesses.failures == [(1, 2)]

    def test_order_witnesses_cover_their_pairs(self, valid_corpus):
        for table in valid_corpus.values():
            witnesses = order_determining_set(require_gea(table))
            for (a, b), slot in witnesses.provenance.items():
                assert witnesses.states[slot].values[a] > witnesses.states[slot].values[b]

    def test_separating_witnesses_cover_their_pairs(self, valid_corpus):
        for table in valid_corpus.values():
            witnesses = separating_set(require_gea(table))
            for (a, b), slot in witnesses.provenance.items():
                assert witnesses.states[slot].values[a] != witnesses.states[slot].values[b]

    def test_order_determining_implies_separating(self, valid_corpus):
        for name, table in valid_corpus.items():
            gea = require_gea(table)
            if order_determining_set(gea).ok:
                assert separating_set(gea).ok, name

    def test_separation_matches_value_vector_injectivity(self, valid_corpus):
        # S separates points iff a -> (s(a))_s is injective
        for table in valid_corpus.values():
            witnesses = separating_set(require_gea(table))
            vectors = [witnesses.value_vector(a) for a in range(table.n)]
            injective = len(set(vectors)) == table.n
            assert witnesses.ok == injective


class TestFactoredSearch:
    def test_factored_search_matches_unfactored_lp(self, valid_corpus, monkeypatch):
        solved = []
        witness = states._Additivity.witness

        def recording(system, lo, hi):
            state = witness(system, lo, hi)
            solved.append((system.table, lo, hi, state))
            return state

        monkeypatch.setattr(states._Additivity, "witness", recording)
        for table in valid_corpus.values():
            gea = require_gea(table)
            order_determining_set(gea)
            separating_set(gea)
        assert len(solved) > 30
        assert any(state is None for *_, state in solved)
        for table, lo, hi, state in solved:
            program = additivity_program(table, [({lo: Fraction(1), hi: Fraction(-1)},
                                                   Fraction(1))])
            solution = lp_feasible(program)
            if solution is None:
                assert state is None, (table.elements, lo, hi)
            else:
                assert state == state_from_solution(table, solution), (table.elements, lo, hi)


class TestStateInvariants:
    def test_states_are_monotone_on_induced_order(self, valid_corpus):
        for table in valid_corpus.values():
            gea = require_gea(table)
            order = gea.order
            witnesses = order_determining_set(gea)
            for state in witnesses.states:
                for i in range(table.n):
                    for j in range(table.n):
                        if order.leq(i, j):
                            assert state.values[i] <= state.values[j]

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=0, max_value=50))
    def test_cone_closure_under_nonnegative_scaling(self, q):
        table = corpus.load("diamond")
        witnesses = order_determining_set(require_gea(table))
        for state in witnesses.states:
            state.scaled(q).validate(table)

    def test_negative_scaling_rejected(self, diamond):
        state = order_determining_set(require_gea(diamond)).states[0]
        with pytest.raises(InputError):
            state.scaled(Fraction(-1))

    def test_validate_rejects_non_additive_values(self, diamond):
        bogus = GeneralizedState.of((Fraction(0), Fraction(1), Fraction(1), Fraction(3)))
        with pytest.raises(InputError):
            bogus.validate(diamond)

    def test_random_population_witnesses_validate(self):
        for table in random_population(23, 30):
            witnesses = order_determining_set(require_gea(table))
            for state in witnesses.states:
                state.validate(table)


class TestIntegerStates:
    def test_stored_in_lowest_terms(self):
        state = GeneralizedState((0, 2, 4), 4)
        assert (state.nums, state.den) == ((0, 1, 2), 2)
        assert state.values == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert state(1) == Fraction(2, 4)

    def test_non_positive_denominator_rejected(self):
        for den in (0, -2):
            with pytest.raises(InputError):
                GeneralizedState((0, 1), den)

    def test_equality_matches_fraction_equality_on_non_reduced_input(self):
        half = GeneralizedState((0, 2, 4), 4)
        assert half == GeneralizedState((0, 1, 2), 2)
        assert half == GeneralizedState.of(("0", "2/4", "1"))
        assert half != GeneralizedState((0, 1, 2), 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=3, max_size=3),
                              st.integers(1, 4)), min_size=1, max_size=8))
    def test_record_reuses_slots_as_fractions_would(self, drawn):
        # Small numerators over small denominators, so many drawn states are
        # equal as rational vectors without being equal as drawn.
        witnesses = StateWitnessSet(goal="order")
        distinct: list[tuple[Fraction, ...]] = []
        for index, (nums, den) in enumerate(drawn):
            state = GeneralizedState(tuple(nums), den)
            values = tuple(Fraction(p, den) for p in nums)
            assert (state == GeneralizedState(tuple(drawn[0][0]), drawn[0][1])) == \
                (values == tuple(Fraction(p, drawn[0][1]) for p in drawn[0][0]))
            if values not in distinct:
                distinct.append(values)
            states._record(witnesses, (index, 0), state)
            assert witnesses.provenance[(index, 0)] == distinct.index(values)
        assert [s.values for s in witnesses.states] == distinct


class TestNormalizeAndBounds:
    def test_chain_witness_normalizes_to_half(self, chain_c3):
        state = GeneralizedState.of((Fraction(0), Fraction(1), Fraction(2)))
        assert values(normalize_state(state, chain_c3)) == ("0", "1/2", "1")

    def test_normalization_is_idempotent(self, chain_c3):
        state = GeneralizedState.of((Fraction(0), Fraction(1, 2), Fraction(1)))
        assert normalize_state(state, chain_c3).values == state.values

    def test_diamond_witness_already_normalized(self, diamond):
        state = GeneralizedState.of((Fraction(0), Fraction(1), Fraction(0), Fraction(1)))
        assert normalize_state(state, diamond).values == state.values

    def test_trivial_on_unit_rejected(self, diamond):
        zero_state = GeneralizedState.of((Fraction(0),) * 4)
        with pytest.raises(InputError):
            normalize_state(zero_state, diamond)

    def test_no_unit_is_contract_error(self, excd):
        state = GeneralizedState.of((Fraction(0), Fraction(1), Fraction(0)))
        with pytest.raises(ContractError):
            normalize_state(state, excd)

    def test_bound_constant_is_max_over_witnesses(self, diamond):
        witnesses = order_determining_set(require_gea(diamond))
        for a in range(diamond.n):
            expected = max(s.values[a] for s in witnesses.states)
            assert bound_constant(a, witnesses) == expected

    def test_bound_at_zero_element_is_zero(self, diamond):
        witnesses = order_determining_set(require_gea(diamond))
        assert bound_constant(0, witnesses) == 0

    def test_excd_bound_for_first_projector(self, excd):
        witnesses = order_determining_set(require_gea(excd))
        assert bound_constant(1, witnesses) == 1

    def test_empty_witness_set_rejected(self, singleton):
        witnesses = order_determining_set(require_gea(singleton))
        with pytest.raises(InputError):
            bound_constant(0, witnesses)
