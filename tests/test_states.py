import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gea import corpus
from gea.algebra import AlgebraTable, CheckedGEA, induced_order, require_gea
from gea.errors import ContractError, InputError
from gea import lp, states
from gea.cli import main
from gea.generate import random_gea, random_population
from gea.lp import LinearProgram, lp_feasible
from gea.represent import build_representation, operator_norm, verify_morphism
from gea.states import (GeneralizedState, additivity_program, order_determining_set,
                        separating_set)
from reference import (assert_witness_set, atom_pair_program, atom_state, checked_proofs,
                       conflict_weights, down_set_table, glued, leq, pair_programs,
                       pairs_not_leq, product, fraction_values, reference_kahn,
                       reference_first_nonadditive, reference_pair_programs,
                       reference_search, reference_validate,
                       reference_walk, refutations, state_of, witness_pairs, write_table,
                       x0_phase_one)
from test_families import down_set, mo_table


def values(state):
    return tuple(str(v) for v in fraction_values(state))


def witness_of(witnesses, pair):
    """The first state that covers pair."""
    covers = operator.gt if witnesses.goal == "order" else operator.ne
    a, b = pair
    return values(next(s for s in witnesses.states if covers(s.nums[a], s.nums[b])))


class TestOrderWitness:
    def test_excd_pair(self, excd):
        witnesses = order_determining_set(require_gea(excd))
        assert witness_of(witnesses, (1, 2)) == ("0", "1", "0")

    def test_diamond_pair_respects_additivity(self, diamond):
        witnesses = order_determining_set(require_gea(diamond))
        assert witness_of(witnesses, (1, 2)) == ("0", "1", "0", "1")
        # a + b = 1 forces s(1) = s(a) + s(b)
        for state in witnesses.states:
            assert state.nums[3] == state.nums[1] + state.nums[2]

    def test_glued_atoms_have_no_witness(self, no_states):
        # a + a = b + b forces s(a) = s(b), so neither order pair of the atoms
        # has a witness and every state found agrees on them.
        witnesses = order_determining_set(require_gea(no_states))
        assert witnesses.failures == [(1, 2), (2, 1)]
        assert all(s.nums[1] == s.nums[2] for s in witnesses.states)


class TestSeparatingState:
    def test_excd_pair(self, excd):
        witnesses = separating_set(require_gea(excd))
        assert witness_of(witnesses, (1, 2)) == ("0", "1", "0")

    def test_chain_uses_second_normalization(self, chain_c3):
        # s(0) - s(h) = 1 is infeasible, so the first pair takes its state
        # from the reverse normalization s(h) - s(0) = 1.
        witnesses = separating_set(require_gea(chain_c3))
        assert witness_of(witnesses, (0, 1)) == ("0", "1", "2")

    def test_glued_atoms_cannot_be_separated(self, no_states):
        witnesses = separating_set(require_gea(no_states))
        assert witnesses.states and all(s.nums[1] == s.nums[2] for s in witnesses.states)


class TestWitnessSets:
    def test_excd_order_set_has_two_witnesses(self, excd):
        witnesses = order_determining_set(require_gea(excd))
        assert witnesses.ok
        assert len(witnesses.states) == 2
        # The states come from the pairs (pi1, 0) and (pi2, 0); between them
        # they also order pi1 and pi2 both ways.
        assert witnesses.provenance == [(1, 0), (2, 0)]
        assert witness_of(witnesses, (1, 2)) != witness_of(witnesses, (2, 1))

    def test_diamond_order_set_is_small(self, diamond):
        witnesses = order_determining_set(require_gea(diamond))
        assert witnesses.ok
        order = induced_order(diamond)
        assert len(witnesses.states) <= len(pairs_not_leq(order))

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
            gea = require_gea(table)
            assert_witness_set(gea, order_determining_set(gea))

    def test_separating_witnesses_cover_their_pairs(self, valid_corpus):
        for table in valid_corpus.values():
            gea = require_gea(table)
            assert_witness_set(gea, separating_set(gea))

    def test_order_determining_implies_separating(self, valid_corpus):
        for name, table in valid_corpus.items():
            gea = require_gea(table)
            if order_determining_set(gea).ok:
                assert separating_set(gea).ok, name

    def test_separation_matches_value_vector_injectivity(self, valid_corpus):
        # S separates points iff a -> (s(a))_s is injective
        for table in valid_corpus.values():
            witnesses = separating_set(require_gea(table))
            vectors = [tuple(fraction_values(s)[a] for s in witnesses.states)
                       for a in range(table.n)]
            injective = len(set(vectors)) == table.n
            assert witnesses.ok == injective


class TestFactoredSearch:
    def test_factored_search_matches_unfactored_lp(self, valid_corpus, monkeypatch):
        solved = []
        witness = states._AtomProgram.witness

        def recording(program, lo, hi):
            state = witness(program, lo, hi)
            solved.append((program, lo, hi, state))
            return state

        monkeypatch.setattr(states._AtomProgram, "witness", recording)
        for table in valid_corpus.values():
            gea = require_gea(table)
            order_determining_set(gea)
            separating_set(gea)
        assert len(solved) > 30
        assert any(state is None for *_, state in solved)
        for program, lo, hi, state in solved:
            # The whole pair program factored in one go, not as an extension,
            # and its state read off by one dot product vec(e)·x per element.
            pair = atom_pair_program(program, lo, hi)
            solution = lp_feasible(LinearProgram(pair.n_vars, pair.rows))
            if solution is None:
                assert state is None, (program, lo, hi)
            else:
                assert state == atom_state(program, solution), (program, lo, hi)


class TestStateInvariants:
    def test_states_are_monotone_on_induced_order(self, valid_corpus):
        for table in valid_corpus.values():
            gea = require_gea(table)
            order = gea.above
            witnesses = order_determining_set(gea)
            for state in witnesses.states:
                for i in range(table.n):
                    for j in range(table.n):
                        if leq(order, i, j):
                            assert state.nums[i] <= state.nums[j]

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=0, max_value=50))
    def test_cone_closure_under_nonnegative_scaling(self, q):
        table = corpus.load("diamond")
        witnesses = order_determining_set(require_gea(table))
        for state in witnesses.states:
            reference_validate(GeneralizedState(tuple(p * q.numerator for p in state.nums),
                                                state.den * q.denominator), table)

    def test_negative_scaling_rejected(self, diamond):
        gea = require_gea(diamond)
        state = order_determining_set(gea).states[0]
        negated = GeneralizedState(tuple(-p for p in state.nums), state.den)
        with pytest.raises(InputError):
            reference_validate(negated, diamond)
        with pytest.raises(InputError, match="nonnegative"):
            build_representation(gea, [negated])

    def test_validate_rejects_non_additive_values(self, diamond):
        # a + b = 1 in the diamond, but 1 + 1 != 3: the oracle rejects the
        # state, and the build's self-check names that sum.
        bogus = GeneralizedState((0, 1, 1, 3))
        with pytest.raises(InputError):
            reference_validate(bogus, diamond)
        rep = build_representation(require_gea(diamond), [bogus])
        broken = reference_first_nonadditive(diamond, [bogus.nums])
        assert broken == (1, 2, 3)
        assert verify_morphism(rep, diamond) == (False, broken)

    def test_random_population_witnesses_validate(self):
        for table in random_population(23, 30):
            witnesses = order_determining_set(require_gea(table))
            for state in witnesses.states:
                reference_validate(state, table)


class TestIntegerStates:
    def test_stored_in_lowest_terms(self):
        state = GeneralizedState((0, 2, 4), 4)
        assert (state.nums, state.den) == ((0, 1, 2), 2)
        assert fraction_values(state) == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_non_positive_denominator_rejected(self):
        for den in (0, -2):
            with pytest.raises(InputError, match="^state denominator must be positive$"):
                GeneralizedState((0, 1), den)
        with pytest.raises(InputError, match="^state denominator must be positive$"):
            GeneralizedState((1,), den=0)

    def test_equality_matches_fraction_equality_on_non_reduced_input(self):
        assert GeneralizedState((2, 4), 2) == GeneralizedState((1, 2))
        assert hash(GeneralizedState((2, 4), 2)) == hash(GeneralizedState((1, 2)))
        half = GeneralizedState((0, 2, 4), 4)
        assert half == GeneralizedState((0, 1, 2), 2)
        assert half == state_of(("0", "2/4", "1"))
        assert half != GeneralizedState((0, 1, 2), 3)

    def test_each_new_slot_covers_its_pair_and_equals_no_earlier_slot(
            self, valid_corpus, monkeypatch):
        # A search asks for a new state only when no slot covers the pair,
        # so the state it gets, which covers the pair, equals no slot.  Each
        # call of the atom program's witness records the pair, the state and
        # the count of states returned before it.
        asked = []
        real = states._AtomProgram.witness

        def recording(program, lo, hi):
            state = real(program, lo, hi)
            asked.append(((lo, hi), state, sum(s is not None for _, s, _ in asked)))
            return state

        monkeypatch.setattr(states._AtomProgram, "witness", recording)
        tables = list(valid_corpus.values()) + [random_gea(random.Random(seed), n)
                                                for n in (8, 12, 16) for seed in range(3)]
        added = 0
        for table in tables:
            gea = require_gea(table)
            for search, covers in ((order_determining_set, operator.gt),
                                   (separating_set, operator.ne)):
                asked.clear()
                witnesses = search(gea)
                new = [(pair, state, slot) for pair, state, slot in asked if state is not None]
                assert len(witnesses.states) == len(new)
                for (a, b), state, slot in new:
                    assert witnesses.states[slot] is state
                    # to separate, a state for s(b) - s(a) = 1 covers a < b
                    assert witnesses.provenance[slot] == \
                        ((a, b) if search is order_determining_set else (min(a, b), max(a, b)))
                    assert covers(state.nums[a], state.nums[b])
                    assert state not in witnesses.states[:slot]
                added += len(new)
        assert added > 30


class TestNormalizeAndBounds:
    """The least bound c_a of a witness set, the largest s(a) over its
    states, is the operator norm of phi(a) in the representation it builds."""

    def norms(self, table):
        gea = require_gea(table)
        witnesses = order_determining_set(gea)
        rep = build_representation(gea, witnesses.states)
        return witnesses, [Fraction(p, rep.den) for p in operator_norm(rep)]

    def test_bound_constant_is_max_over_witnesses(self, diamond):
        witnesses, norms = self.norms(diamond)
        assert norms == [max(fraction_values(s)[a] for s in witnesses.states)
                         for a in range(diamond.n)]

    def test_bound_at_zero_element_is_zero(self, diamond):
        assert self.norms(diamond)[1][0] == 0

    def test_excd_bound_for_first_projector(self, excd):
        assert self.norms(excd)[1][1] == 1


def grid(side, dims):
    """The product of dims chains C_side: the down-set {0, ..., side - 1}^dims."""
    return down_set_table(list(itertools.product(range(side), repeat=dims)))


NS = corpus.load("no_states")
FAMILIES = {"C_9": grid(9, 1), "cube4": grid(2, 4), "C3xC4": down_set_table(
    list(itertools.product(range(3), range(4)))), "C4xC4": grid(4, 2)}
# Chains times no_states, where most failing pairs follow from others by
# transitivity of the state preorder.
PRODUCTS = {"C3xNS": product(grid(3, 1), NS), "C2xC3xNS": product(grid(2, 1), grid(3, 1), NS)}


def named_table(name):
    return PRODUCTS[name] if name in PRODUCTS else corpus.load(name)


class TestAtomProgram:
    """The atom program against the reference, one variable per nonzero
    element and one row per defined sum: every pair LP has the same
    verdict, both searches have the reference's failures, and each witness
    set covers its pairs.  The slot counts may differ: the two LPs are
    different programs, whose phase one can stop at different vertices, and
    a different state covers different later pairs."""

    def check(self, table):
        gea = require_gea(table)
        for atom, reference in zip(pair_programs(table), reference_pair_programs(table),
                                   strict=True):
            assert (lp_feasible(atom) is None) == (lp_feasible(reference) is None), atom
            if atom.conflict is not None:
                assert atom.refuted_by(conflict_weights(atom))
        for goal, search in (("order", order_determining_set), ("separate", separating_set)):
            witnesses = search(gea)
            assert_witness_set(gea, witnesses)
            assert witnesses.failures == reference_search(gea, goal).failures, goal

    def test_corpus(self, valid_corpus):
        for table in valid_corpus.values():
            self.check(table)

    # Draws whose slot counts differ from the reference's.
    @example(214, 12)
    @example(382, 9)
    @example(481, 9)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 24))
    def test_random_tables(self, seed, n):
        self.check(random_gea(random.Random(seed), n))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 30), st.integers(0, 2 ** 32))
    def test_down_sets(self, m, n, seed):
        self.check(down_set_table(down_set(random.Random(seed), m, n)))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_families_glued_to_no_states(self, name):
        self.check(FAMILIES[name])
        self.check(glued(FAMILIES[name], NS))

    @pytest.mark.parametrize("name", list(PRODUCTS))
    def test_chains_times_no_states(self, name):
        # Most failures here have no LP of their own, and they must still
        # match the reference's, pair for pair.
        self.check(PRODUCTS[name])

    @pytest.mark.parametrize("n", [2, 3, 14, 128])
    def test_chain_has_one_row_per_sum_with_its_atom(self, n):
        # Each sum p + x of the atom p with a nonzero x is the defining row
        # of x + p, so the chain has n - 2 of them and C has no row.
        program = states.additivity_program(require_gea(grid(n, 1)))
        assert len(program.chain) == n - 2 and program.n_vars == 1
        assert program.rows == () and program.pivots == []

    @pytest.mark.parametrize("name, table, slots", [
        ("C_128", grid(128, 1), 1),
        ("cube6", grid(2, 6), 6),
        ("C_4^3", grid(4, 3), 3),
    ])
    @pytest.mark.parametrize("goal", ["order", "separate"])
    def test_represent_large_tables(self, tmp_path, capsys, name, table, slots, goal):
        path = tmp_path / f"{name}.json"
        write_table(table, path)
        assert main(["represent", str(path), "--goal", goal, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["witnesses"]["states"]) == slots


def shuffled(table, seed):
    """The table with its indices in the order random.Random(seed) shuffles
    them to."""
    order = list(range(table.n))
    random.Random(seed).shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return AlgebraTable(tuple(table.elements[old] for old in order), new[table.zero],
                        [(new[i], new[j], new[k]) for i, j, k in table.triples()])


class TestEveryNoIsProved:
    """Every pair LP without a solution is proved by Farkas row weights that
    reference_refutes rechecks in Fractions (see checked_proofs); the
    weights of a conflict, "exact", also have yᵀA = 0."""

    @staticmethod
    def programs(valid_corpus):
        for table in [*valid_corpus.values(), *FAMILIES.values(), PRODUCTS["C3xNS"]]:
            yield from pair_programs(table)

    def test_pair_programs(self, valid_corpus, monkeypatch):
        # Whether a pair LP is infeasible, and whether it is inconsistent,
        # is a fact about the table, so these counts are fixed.
        checked, proofs = checked_proofs(monkeypatch)
        for program in self.programs(valid_corpus):
            checked(program)
        assert proofs == {"farkas": 326, "exact": 16}

    def test_mutated_proofs_fail(self, valid_corpus, monkeypatch):
        # The weights y that refuted_by read for each None hold, and two
        # mutations of them fail: -y, and y without the pair row's weight,
        # since C's rows have rhs 0 and only the pair row, rhs 1, makes
        # yᵀb < 0.
        read = refutations(monkeypatch)
        refuted = 0
        for program in self.programs(valid_corpus):
            read.clear()
            if lp_feasible(program) is not None:
                continue
            ((_, y),) = read
            *cone, (_, rhs) = program.rows
            assert rhs == 1 and all(b == 0 for _, b in cone)
            assert program.refuted_by(y)
            assert not program.refuted_by({i: -w for i, w in y.items()})
            assert not program.refuted_by({i: w for i, w in y.items() if i != len(cone)})
            refuted += 1
        assert refuted == 326 + 16

    def test_searches_fail_on_the_sign_bounds(self, monkeypatch):
        # In this index order C3xNS's order search takes two failing LPs
        # whose pair row is consistent with C: phase one stops at a row of
        # nonnegative coefficients and a negative rhs.  The failures are
        # those of C3xNS in its own order.
        checked, proofs = checked_proofs(monkeypatch)
        gea = require_gea(shuffled(PRODUCTS["C3xNS"], 3))
        assert [len(search(gea).failures) for search in (order_determining_set, separating_set)
                ] == [12, 3]
        assert proofs == {"farkas": 2, "exact": 6}


def phase_one_tables(valid_corpus):
    """The tables whose atom pair programs pin lp_feasible's points, by
    name: the corpus, MO_k for k <= 6, FAMILIES and PRODUCTS and each of
    them glued to no_states, and random_gea at n = 6, 9 and 12, seeds
    0-29."""
    named = FAMILIES | PRODUCTS
    return {**valid_corpus, **{f"MO_{k}": mo_table(k) for k in range(1, 7)}, **named,
            **{f"{name}+NS": glued(table, NS) for name, table in named.items()},
            **{f"random_gea({seed}, {n})": random_gea(random.Random(seed), n)
               for n in (6, 9, 12) for seed in range(30)}}


class TestPhaseOnePoints:
    """lp_feasible returns the point of x0_phase_one, the auxiliary-variable
    phase one it replaced, on every LP that the witness searches of these
    tables run, so the witness states and the reports are the ones that
    phase one gave.  On general programs the two can stop at different
    feasible vertices, so the inputs are fixed, not drawn."""

    # The one atom pair program of these tables where they do: lp_feasible
    # returns (1, 0, 0, 2, 1) over the atoms, and x0_phase_one returns
    # (0, 1, 0, 0, 1).  No search runs it: earlier slots cover (8, 5) under
    # both goals.
    MOVED = {("random_gea(21, 9)", 8, 5)}

    def test_atom_pair_programs_keep_their_points(self, valid_corpus):
        moved = set()
        checked = feasible = 0
        for name, table in phase_one_tables(valid_corpus).items():
            program = additivity_program(require_gea(table))
            for a, b in itertools.permutations(range(table.n), 2):
                pair = atom_pair_program(program, a, b)
                x = lp_feasible(pair)
                if x != x0_phase_one(pair):
                    moved.add((name, a, b))
                checked += 1
                feasible += x is not None
        assert moved == self.MOVED
        assert checked > 10000 and feasible > 5000

    def test_every_lp_of_the_searches_keeps_its_point(self, valid_corpus, monkeypatch):
        ran = []
        real = states.lp_feasible
        monkeypatch.setattr(states, "lp_feasible", lambda program: ran.append(program)
                            or real(program))
        for table in phase_one_tables(valid_corpus).values():
            gea = require_gea(table)
            order_determining_set(gea)
            separating_set(gea)
        assert all(real(program) == x0_phase_one(program) for program in ran)
        assert len(ran) > 1000


def antichain(atoms):
    """Zero and atoms atoms, with no sum of two nonzero elements: the unit
    vectors of N^atoms as a down-set."""
    return down_set_table([tuple(int(c == j) for j in range(atoms)) for c in range(-1, atoms)])


class TestWalkOracle:
    """The searches' coverage masks against reference_assign_witnesses, the
    per-pair walk, on a fresh atom program: the same states, failures and
    provenance, in order, under both goals."""

    def check(self, table):
        gea = require_gea(table)
        for goal, search in (("order", order_determining_set), ("separate", separating_set)):
            assert search(gea) == reference_walk(gea, goal, additivity_program(gea).witness), goal

    def test_corpus(self, valid_corpus):
        for table in valid_corpus.values():
            self.check(table)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 24))
    def test_random_tables(self, seed, n):
        self.check(random_gea(random.Random(seed), n))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 30), st.integers(0, 2 ** 32))
    def test_down_sets(self, m, n, seed):
        self.check(down_set_table(down_set(random.Random(seed), m, n)))

    @pytest.mark.parametrize("atoms", [16, 24])
    def test_antichains(self, atoms):
        self.check(antichain(atoms))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_families_glued_to_no_states(self, name):
        self.check(glued(FAMILIES[name], NS))


class TestValidByConstruction:
    """Every state the atom program returns is a generalized state with no
    check of its own: it has one value per element; an orthant value
    vec(x)[j] / d_j has vec(x)[j] >= 0 and d_j > 0; an LP state sums, along
    the chain, a point lp_feasible rechecked as nonnegative; and zero,
    neither an atom nor in the chain, gets 0."""

    @staticmethod
    def check(table):
        program = additivity_program(require_gea(table))
        for lo, hi in witness_pairs(table):
            state = program.witness(lo, hi)
            if state is not None:
                reference_validate(state, table)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 12))
    def test_random_tables(self, seed, n):
        self.check(random_gea(random.Random(seed), n))

    def test_corpus_and_products_with_no_states(self, valid_corpus):
        for table in [*valid_corpus.values(), *PRODUCTS.values()]:
            self.check(table)


def first_sum_of_nonzeros(table):
    """The first defined i + j = k, in row order, with i and j nonzero."""
    return next((i, j, row[j]) for i, (row, cols) in enumerate(zip(table.rows, table.cols))
                if i != table.zero for j in cols if j != table.zero)


class TestSearchSelfCheck:
    """The search's one check of its states, the packed pass over every
    defined sum, fails only on a fault in the program.  With the first
    state the atom program returns raised by 1 at k, for the first sum
    i + j = k of nonzero elements, the searches raise AssertionError
    naming the first sum that the per-sum walk finds broken, and represent
    exits 1 with an error report."""

    @staticmethod
    def damage(table, monkeypatch):
        """Patch the atom program to raise the first state it returns at k;
        the list of every state it returns."""
        _, _, k = first_sum_of_nonzeros(table)
        real, returned = states._AtomProgram.witness, []

        def damaged(program, lo, hi):
            state = real(program, lo, hi)
            if state is not None:
                if not returned:
                    nums = list(state.nums)
                    nums[k] += state.den
                    state = GeneralizedState(tuple(nums), state.den)
                returned.append(state)
            return state

        monkeypatch.setattr(states._AtomProgram, "witness", damaged)
        return returned

    @staticmethod
    def message(table, returned):
        bad = reference_first_nonadditive(table, [state.nums for state in returned])
        assert bad is not None
        return f"witness state is not additive on {table.elements[bad[0]]}+{table.elements[bad[1]]}"

    @pytest.mark.parametrize("name", ["diamond", "cube8", "no_states", "C3xNS"])
    @pytest.mark.parametrize("search", [order_determining_set, separating_set],
                             ids=["order", "separate"])
    def test_searches_raise_assertion_error(self, name, search, monkeypatch):
        table = named_table(name)
        returned = self.damage(table, monkeypatch)
        with pytest.raises(AssertionError) as caught:
            search(require_gea(table))
        assert str(caught.value) == self.message(table, returned)

    @pytest.mark.parametrize("goal", ["order", "separate"])
    def test_represent_exits_one_with_a_report(self, goal, capsys, monkeypatch):
        table = corpus.load("cube8")
        returned = self.damage(table, monkeypatch)
        code = main(["represent", str(corpus.path("cube8")), "--goal", goal, "--json"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, report["exit"], err) == (1, 1, "")
        assert report["error"] == self.message(table, returned)


class TestProgramSizes:
    """A down-set of N^m has no consistency rows: its atoms are the unit
    vectors it holds, and every decomposition of x counts x's coordinates."""

    def check_down_set(self, table, monkeypatch):
        gea = require_gea(table)
        program = additivity_program(gea)
        assert program.rows == () and program.pivots == []
        pivots = []
        real = lp._pivot
        monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(args) or real(*args))
        for pair in pair_programs(table):
            pivots.clear()
            lp_feasible(pair)
            # One row: where its rhs is negative it leaves for its least
            # negative column, and that basis is feasible or the row has no
            # negative entry.
            assert len(pair.rows) == 1 and len(pivots) <= 1
        # Each witness is one basic solution, a multiple of one coordinate,
        # and (e_i, 0) needs coordinate i, so the order goal takes one slot
        # per atom.
        assert len(order_determining_set(gea).states) == program.n_vars

    @pytest.mark.parametrize("side, dims", [(40, 1), (2, 5), (4, 3)])
    def test_chains_cubes_and_grids(self, side, dims, monkeypatch):
        table = grid(side, dims)
        self.check_down_set(table, monkeypatch)
        assert additivity_program(require_gea(table)).n_vars == dims

    @pytest.mark.parametrize("seed", range(6))
    def test_down_sets_need_one_slot_per_coordinate(self, seed, monkeypatch):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        points = down_set(rng, m, rng.randint(3 * m, 40))
        used = sum(any(p[c] for p in points) for c in range(m))
        self.check_down_set(down_set_table(points), monkeypatch)
        assert additivity_program(require_gea(down_set_table(points))).n_vars == used

    def test_no_states_powers(self):
        # C holds 2a - 2b = 0 for each glued pair of atoms.
        for power, atoms in ((1, 2), (3, 6)):
            program = additivity_program(require_gea(product(*[NS] * power)))
            assert (program.n_vars, len(program.pivots)) == (atoms, atoms // 2)
        assert additivity_program(require_gea(NS)).rows == ((((0, 2), (1, -2)), 0),)


def empty_c_tables(valid_corpus):
    """Tables whose atom program has no row, by name: C_2-C_14, the cubes
    on 1-5 atoms, the antichains of 1-24 atoms, twelve random down-sets of
    N^2-N^5 and the corpus tables with C empty."""
    chains = {f"C_{n}": grid(n, 1) for n in range(2, 15)}
    cubes = {f"cube{m}": grid(2, m) for m in range(1, 6)}
    antichains = {f"antichain{k}": antichain(k) for k in range(1, 25)}
    rngs = [random.Random(seed) for seed in range(12)]
    down_sets = {f"down_set({seed})": down_set_table(down_set(rng, 2 + seed % 4,
                                                              rng.randint(3, 30)))
                 for seed, rng in enumerate(rngs)}
    corpus_empty = {name: table for name, table in valid_corpus.items()
                    if not additivity_program(require_gea(table)).rows}
    assert set(corpus_empty) == {"singleton", "excd", "excd_ext", "diamond", "chain_c3",
                                 "cube8"}
    return {**chains, **cubes, **antichains, **down_sets, **corpus_empty}


class TestOrthant:
    """With C empty, the orthant's sign test against lp_feasible on the
    pair program, for every ordered pair (a, b) from the same ⊑: the same
    state or None, the same ⊑ afterwards, and a conflict exactly when
    vec(a) = vec(b).  The searches on such tables then run no LP."""

    def test_sign_test_is_the_lp_vertex(self, valid_corpus):
        pairs = conflicts = states_found = 0
        for name, table in empty_c_tables(valid_corpus).items():
            program = additivity_program(require_gea(table))
            assert program.rows == (), name
            start = program.below
            for a, b in itertools.product(range(table.n), repeat=2):
                row = states._difference(program.vecs[a], program.vecs[b])
                got = program._orthant(a, b, row)
                got_below, program.below = program.below, start
                pair = atom_pair_program(program, a, b)
                x = lp_feasible(pair)
                want = None if x is None else atom_state(program, x)
                assert got == want == program._lp(a, b, row), (name, a, b)
                assert got_below == program.below, (name, a, b)
                assert (pair.conflict is not None) == (row == ()), (name, a, b)
                program.below = start
                pairs += 1
                conflicts += row == ()
                states_found += got is not None
        assert (pairs, conflicts, states_found) == (12622, 728, 9856)

    def test_searches_run_no_lp(self, valid_corpus, monkeypatch):
        def no_lp(program):
            raise AssertionError("an LP ran on a table with C empty")

        monkeypatch.setattr(states, "lp_feasible", no_lp)
        for name, table in empty_c_tables(valid_corpus).items():
            gea = require_gea(table)
            assert order_determining_set(gea).ok and separating_set(gea).ok, name


class TestCycleGuard:
    def test_cycle_of_sums_raises(self):
        # u + v = w and w + v = u: the edges u -> w -> u make a cycle, so
        # Kahn's order stops at the atom v.  No scan would pass this table
        # (GE2 fails), so its CheckedGEA is built by hand, with the
        # reference's short order.
        sums = [(0, x, x) for x in range(4)] + [(x, 0, x) for x in range(1, 4)]
        sums += [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1)]
        table = AlgebraTable(("0", "u", "v", "w"), 0, sums)
        atoms, order = reference_kahn(table)
        assert order == (2,)
        gea = CheckedGEA(table, induced_order(table), atoms, order)
        for search in (order_determining_set, separating_set):
            with pytest.raises(ContractError, match="cycle"):
                search(gea)


def lp_pairs(monkeypatch):
    """Record the pair (lo, hi) of every pair program an atom program's
    witness solves, by its LP or, when C is empty, by the orthant's sign
    test, with whether its pair row is in conflict."""
    calls, asked = [], []
    witness, real = states._AtomProgram.witness, states.lp_feasible
    orthant = states._AtomProgram._orthant

    def asking(program, lo, hi):
        asked.append((lo, hi))
        return witness(program, lo, hi)

    def signs(program, lo, hi, row):
        calls.append(((lo, hi), not row))
        return orthant(program, lo, hi, row)

    monkeypatch.setattr(states._AtomProgram, "witness", asking)
    monkeypatch.setattr(states._AtomProgram, "_orthant", signs)
    monkeypatch.setattr(states, "lp_feasible", lambda program: calls.append(
        (asked[-1], program.conflict is not None)) or real(program))
    return calls


class TestStatePreorder:
    """The search's state preorder: a failed pair settles itself, a
    conflict both orders, transitively closed over the induced order, and
    witness solves nothing for a pair it already holds.  lp_pairs counts
    the pairs solved by the orthant's sign test as well as by the LP."""

    def test_one_conflict_settles_both_orders_of_a_pair(self, no_states, monkeypatch):
        # s(a) - s(b) = 1 reduces to 0 = 1, which proves s(a) = s(b); the
        # pair's other order then fails with no LP.
        calls = lp_pairs(monkeypatch)
        gea = require_gea(no_states)
        assert order_determining_set(gea).failures == [(1, 2), (2, 1)]
        assert calls == [((1, 0), False), ((1, 2), True)]
        calls.clear()
        # (0, 1) holds in the induced order, so only (1, 0) runs an LP.
        assert separating_set(gea).failures == [(1, 2)]
        assert calls == [((1, 0), False), ((1, 2), True)]

    @pytest.mark.parametrize("name", ["chain_c3", "cube8"])
    def test_separation_runs_no_lp_for_an_ordered_pair(self, name, monkeypatch):
        calls = lp_pairs(monkeypatch)
        gea = require_gea(corpus.load(name))
        assert separating_set(gea).ok
        assert calls and not any(leq(gea.above, lo, hi) for (lo, hi), _ in calls)

    def test_an_element_against_itself_runs_no_lp(self, diamond, monkeypatch):
        calls = lp_pairs(monkeypatch)
        program = additivity_program(require_gea(diamond))
        assert all(program.witness(a, a) is None for a in range(diamond.n))
        assert calls == []

    def test_equal_vectors_give_an_empty_row_in_conflict(self, diamond):
        # vec(a) - vec(a) has no entry, so the pair row reads 0 = 1: the
        # conflict row proves it with weight -1 on that row alone.
        program = additivity_program(require_gea(diamond))
        pair = atom_pair_program(program, 1, 1)
        last, n = len(pair.rows) - 1, pair.n_vars
        assert pair.rows[-1] == ((), 1) and pair.conflict == {n: -1, n + 1 + last: -1}
        assert conflict_weights(pair) == {last: -1}

    @pytest.mark.parametrize("name, order, separate", [
        ("singleton", 0, 0), ("excd", 2, 2), ("excd_ext", 2, 2), ("diamond", 2, 2),
        ("chain_c3", 1, 1), ("cube8", 3, 3), ("no_states", 2, 2),
        ("C3xNS", 5, 5), ("C2xC3xNS", 9, 9),
    ])
    def test_lp_counts(self, name, order, separate, monkeypatch):
        # One solve per slot and per failure that ⊑ did not yet hold: under
        # the order goal, C2xC3xNS's 3 slots and 36 failures take 9 LPs.
        calls = lp_pairs(monkeypatch)
        gea = require_gea(named_table(name))
        order_determining_set(gea)
        assert len(calls) == order
        calls.clear()
        separating_set(gea)
        assert len(calls) == separate

    @pytest.mark.parametrize("name", ["no_states", *PRODUCTS])
    def test_settled_pairs_are_the_order_and_the_failures(self, name):
        # After an order search, ⊑ holds exactly the induced order and the
        # failing pairs: every other pair a not <= b has a witness.
        table = named_table(name)
        gea = require_gea(table)
        program = additivity_program(gea)
        witnesses = reference_walk(gea, "order", program.witness)
        assert witnesses == order_determining_set(gea)
        settled = {(a, b) for a in range(table.n) for b in range(table.n)
                   if program.below[a] >> b & 1}
        ordered = {(a, b) for a in range(table.n) for b in range(table.n) if leq(gea.above, a, b)}
        assert settled == ordered | set(witnesses.failures)


class TestCompositionLaws:
    """Products and glues of random tables against their parts.  E × F has
    an order-determining (separating) set of states iff E and F both do:
    x ↦ (x, 0) makes E a sub-GEA, on which a state restricts, and the states
    of the parts composed with the projections cover the product's pairs.
    On the glue, each part's states extend by zero.  The greedy slot count
    is not bounded by the parts' counts, so no test reads it."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.integers(2, 9))
    def test_searches_compose(self, seed, n, m):
        rng = random.Random(seed)
        left, right = random_gea(rng, n), random_gea(rng, m)
        # Both name their nonzero elements e1, e2, ...; the glue needs
        # distinct labels.
        right = AlgebraTable(("0", *(f"f{k}" for k in range(1, m))), 0, right.triples())
        for search in (order_determining_set, separating_set):
            parts = [search(require_gea(table)) for table in (left, right)]
            solved = not (parts[0].failures or parts[1].failures)
            for name, composite in (("product", product(left, right)),
                                    ("glue", glued(left, right))):
                gea = require_gea(composite)
                witnesses = search(gea)
                assert_witness_set(gea, witnesses)
                assert (not witnesses.failures) == solved, (search.__name__, name)
                if name == "product":  # (a, 0) has index a * m
                    lifted = {(a * m, b * m) for a, b in parts[0].failures}
                    assert lifted <= set(witnesses.failures)
