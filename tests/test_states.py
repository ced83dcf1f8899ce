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
from gea.represent import build_representation, operator_norm
from gea.states import (GeneralizedState, additivity_program, assign_witnesses,
                        order_determining_set, separating_set)
from reference import (assert_witness_set, atom_pair_program, atom_state, checked_proofs,
                       down_set_table, glued, leq, pair_programs, pairs_not_leq,
                       fraction_values, reference_assign_witnesses, reference_kahn,
                       reference_pair_programs, reference_search, state_of, write_table,
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
            GeneralizedState(tuple(p * q.numerator for p in state.nums),
                             state.den * q.denominator).validate(table)

    def test_negative_scaling_rejected(self, diamond):
        state = order_determining_set(require_gea(diamond)).states[0]
        with pytest.raises(InputError):
            GeneralizedState(tuple(-p for p in state.nums), state.den).validate(diamond)

    def test_validate_rejects_non_additive_values(self, diamond):
        bogus = GeneralizedState((0, 1, 1, 3))
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
        # call of find records the pair, the state and the slot count before.
        asked = []
        real = states.assign_witnesses

        def recording(table, goal, want, find):
            found = []  # the states find has returned so far

            def traced(a, b):
                state = find(a, b)
                asked.append(((a, b), state, len(found)))
                if state is not None:
                    found.append(state)
                return state
            return real(table, goal, want, traced)

        monkeypatch.setattr(states, "assign_witnesses", recording)
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
                    assert witnesses.provenance[slot] == (a, b)
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


def product(*parts: AlgebraTable) -> AlgebraTable:
    """The direct product of tables whose zero is index 0: tuples of
    elements, summed coordinatewise where every coordinate's sum is
    defined."""
    points = list(itertools.product(*(range(t.n) for t in parts)))
    index = {p: i for i, p in enumerate(points)}
    sums = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            k = tuple(t.sums.get(pair) for t, pair in zip(parts, zip(x, y)))
            if None not in k:
                sums.append((i, j, index[k]))
    labels = tuple(".".join(t.elements[c] for t, c in zip(parts, p)) for p in points)
    return AlgebraTable(labels, 0, sums)


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
                assert atom.refuted_by(atom.certificate())
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
    """Every pair LP without a solution is proved by row weights that
    reference_refutes rechecks in Fractions (see checked_proofs): Farkas
    weights for a failure on the sign bounds, exact ones for a conflict."""

    def test_pair_programs(self, valid_corpus, monkeypatch):
        # Whether a pair LP is infeasible, and whether it is inconsistent,
        # is a fact about the table, so these counts are fixed.
        checked, proofs = checked_proofs(monkeypatch)
        for table in [*valid_corpus.values(), *FAMILIES.values(), PRODUCTS["C3xNS"]]:
            for program in pair_programs(table):
                checked(program)
        assert proofs == {"farkas": 326, "exact": 16}

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


def goal_inputs(gea, goal):
    """The masks assign_witnesses takes and the pairs of the per-pair walk,
    for one goal."""
    n = gea.table.n
    if goal == "order":
        return gea.not_above(), pairs_not_leq(gea.above)
    return ([(1 << n) - (2 << a) for a in range(n)],
            [(a, b) for a in range(n) for b in range(a + 1, n)])


class TestWalkOracle:
    """assign_witnesses' coverage masks against reference_assign_witnesses,
    the per-pair walk: the same states, failures and provenance, in order,
    under both goals."""

    def check(self, table):
        gea = require_gea(table)
        for goal in ("order", "separate"):
            want, pairs = goal_inputs(gea, goal)
            runs = []
            for search, todo in ((assign_witnesses, want), (reference_assign_witnesses, pairs)):
                program = additivity_program(gea)
                if goal == "order":
                    find = program.witness
                else:
                    find = lambda a, b, p=program: p.witness(a, b) or p.witness(b, a)  # noqa: E731
                runs.append(search(table, goal, todo, find))
            assert runs[0] == runs[1], goal
            search = order_determining_set if goal == "order" else separating_set
            assert search(gea) == runs[0]

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
    """Record the pair (lo, hi) of every LP an atom program's witness runs,
    with whether its pair row is in conflict."""
    calls, asked = [], []
    witness, real = states._AtomProgram.witness, states.lp_feasible

    def asking(program, lo, hi):
        asked.append((lo, hi))
        return witness(program, lo, hi)

    monkeypatch.setattr(states._AtomProgram, "witness", asking)
    monkeypatch.setattr(states, "lp_feasible", lambda program: calls.append(
        (asked[-1], program.conflict is not None)) or real(program))
    return calls



class TestStatePreorder:
    """The search's state preorder: a failed pair LP settles its pair, a
    conflict both orders, transitively closed over the induced order, and
    witness runs no LP for a pair it already holds."""

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
        # conflict path proves it with weight -1 on that row alone.
        program = additivity_program(require_gea(diamond))
        pair = atom_pair_program(program, 1, 1)
        assert pair.rows[-1] == ((), 1) and pair.conflict == len(pair.rows) - 1
        assert pair.certificate() == {pair.conflict: -1}

    @pytest.mark.parametrize("name, order, separate", [
        ("singleton", 0, 0), ("excd", 2, 2), ("excd_ext", 2, 2), ("diamond", 2, 2),
        ("chain_c3", 1, 1), ("cube8", 3, 3), ("no_states", 2, 2),
        ("C3xNS", 5, 5), ("C2xC3xNS", 9, 9),
    ])
    def test_lp_counts(self, name, order, separate, monkeypatch):
        # One LP per slot and per failure that ⊑ did not yet hold: under the
        # order goal, C2xC3xNS's 3 slots and 36 failures take 9 LPs.
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
        witnesses = assign_witnesses(table, "order", gea.not_above(), program.witness)
        settled = {(a, b) for a in range(table.n) for b in range(table.n)
                   if program.below[a] >> b & 1}
        ordered = {(a, b) for a in range(table.n) for b in range(table.n) if leq(gea.above, a, b)}
        assert settled == ordered | set(witnesses.failures)
