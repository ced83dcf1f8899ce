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
from gea.represent import (DiagonalRep, build_representation, operator_norm, verify_injective,
                           verify_morphism, verify_order_reflecting)
from gea.states import additivity_program, order_determining_set, separating_set
from gea.lp import lp_feasible
from reference import (FiniteVector, apply_operator, bounded_by, fraction_operators,
                       fraction_values, leq, random_rational_vector, reference_extract_states,
                       sparse, state_of, vector_state)


def frac(x):
    return Fraction(x)


def search_rep(table, search=order_determining_set):
    gea = require_gea(table)
    return build_representation(gea, search(gea).states)


def state_rep(table, *rows):
    return build_representation(require_gea(table), [state_of(row) for row in rows])


def diagonal_rep(*operators):
    """A representation with these rational diagonals, over the lcm of all
    their denominators."""
    rows = [tuple(map(Fraction, op)) for op in operators]
    den = lcm(*(v.denominator for row in rows for v in row))
    return DiagonalRep(tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                             for row in rows), den)


# The Fraction forms of the self-checks, kept as the reference for the
# integer ones in gea.represent.

def reference_verify_morphism(rep, table):
    """Every violation, the zero check first; verify_morphism returns the
    first."""
    violations = []
    operators = fraction_operators(rep)
    zero = table.zero
    if operators[zero] != tuple(Fraction(0) for _ in range(rep.m)):
        violations.append((zero, zero, zero))
    for (i, j), k in table.sums.items():
        summed = tuple(x + y for x, y in zip(operators[i], operators[j]))
        if summed != operators[k]:
            violations.append((i, j, k))
    return violations


def reference_first_violation(rep, table):
    violations = reference_verify_morphism(rep, table)
    return not violations, violations[0] if violations else None


def reference_verify_injective(rep):
    operators = fraction_operators(rep)
    n = len(operators)
    for a in range(n):
        for b in range(a + 1, n):
            if operators[a] == operators[b]:
                return False, (a, b)
    return True, None


def reference_entrywise_leq(rep, a, b):
    operators = fraction_operators(rep)
    return all(x <= y for x, y in zip(operators[a], operators[b]))


def reference_verify_order_reflecting(rep, table):
    order = require_gea(table).above
    for a in range(table.n):
        for b in range(table.n):
            if a != b and reference_entrywise_leq(rep, a, b) and not leq(order, a, b):
                return False, (a, b)
    return True, None


def reference_operator_norm(rep, a):
    entries = [abs(e) for e in fraction_operators(rep)[a]]
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
        assert fraction_operators(rep) == (
            (frac(0), frac(0)), (frac(1), frac(0)), (frac(0), frac(1)))

    def test_chain_single_witness(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        assert fraction_operators(rep) == ((frac(0),), (frac(1),), (frac(2),))

    def test_zero_state_builds_but_separates_nothing(self, diamond):
        rep = state_rep(diamond, (0, 0, 0, 0))
        ok, pair = verify_injective(rep)
        assert not ok and pair is not None

    def test_empty_witness_set_builds_zero_slot_rep(self, singleton):
        rep = search_rep(singleton)
        assert rep.m == 0
        assert verify_injective(rep) == (True, None)

    def test_non_additive_state_rejected(self, diamond):
        # The build leaves additivity to verify_morphism, which names the sum.
        rep = state_rep(diamond, (0, 1, 1, 3))
        assert verify_morphism(rep, diamond) == (False, (1, 2, 3))
        assert (1, 2, 3) in reference_verify_morphism(rep, diamond)

    @pytest.mark.parametrize("values", [(0, -1, 1, 0), (0, 1, 1)])
    def test_negative_or_wrong_length_state_rejected(self, diamond, values):
        with pytest.raises(InputError):
            state_rep(diamond, values)

    def test_slot_denominators_share_their_lcm(self, chain_c3):
        rep = state_rep(chain_c3, ("0", "1/2", "1"), ("0", "1/3", "2/3"))
        assert rep.den == 6
        assert rep.diagonals == ((0, 0), (3, 2), (6, 4))
        assert fraction_operators(rep)[2] == (Fraction(1), Fraction(2, 3))

    def test_non_positive_denominator_rejected(self):
        with pytest.raises(InputError, match="^representation denominator must be positive$"):
            DiagonalRep(((),), den=0)
        # The length check comes after this one.
        with pytest.raises(InputError, match="^representation denominator must be positive$"):
            DiagonalRep(((0, 0), (1,)), den=0)

    def test_no_diagonals_rejected(self):
        # m is the length of a diagonal, so a representation needs one.
        message = "^a representation needs one diagonal per element$"
        with pytest.raises(InputError, match=message):
            DiagonalRep(())
        with pytest.raises(InputError, match=message):
            DiagonalRep((), 1)

    def test_diagonals_of_different_lengths_rejected(self):
        with pytest.raises(InputError,
                           match="^representation diagonals must all have the same length$"):
            DiagonalRep(((0, 0), (1, 5), (2,)), 1)


class TestShapeAgainstTheTable:
    """The checks that read a representation beside its table take one
    diagonal per element, as build_representation makes."""

    # chain_c3 has three elements.
    @pytest.mark.parametrize("diagonals", [((0,), (1,)), ((),) * 2, ((0,), (1,), (2,), (3,))])
    def test_wrong_diagonal_count_rejected(self, chain_c3, diagonals):
        message = "^a representation needs one diagonal per element$"
        rep = DiagonalRep(diagonals, 1)
        with pytest.raises(InputError, match=message):
            verify_morphism(rep, chain_c3)
        with pytest.raises(InputError, match=message):
            verify_order_reflecting(rep, require_gea(chain_c3))


class TestVerifyMorphism:
    def test_corpus_reps_pass(self, valid_corpus):
        for table in valid_corpus.values():
            rep = search_rep(table)
            assert verify_morphism(rep, table) == (True, None)

    def test_corrupted_entry_fails_with_witness(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        bad = list(rep.diagonals)
        bad[2] = (3 * rep.den,)  # top entry corrupted by +1
        corrupted = DiagonalRep(tuple(bad), rep.den)
        assert verify_morphism(corrupted, chain_c3) == (False, (1, 1, 2))  # h + h = top

    def test_corrupted_zero_fails(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        bad = list(rep.diagonals)
        bad[0] = (rep.den,)
        corrupted = DiagonalRep(tuple(bad), rep.den)
        # The zero check comes first, before the sums that read phi(0).
        assert verify_morphism(corrupted, chain_c3) == (False, (0, 0, 0))

    def test_singleton_rep_passes_vacuously(self, singleton):
        rep = search_rep(singleton)
        assert verify_morphism(rep, singleton) == (True, None)


class TestVerifyInjective:
    def test_excd_rep_is_injective(self, excd):
        rep = search_rep(excd)
        assert verify_injective(rep) == (True, None)

    def test_equal_value_state_found_by_lp(self, diamond):
        # ask the LP for a state with s(a) = s(b) and s(a) = 1
        # The variables are s(a) and s(b), the atoms; s(1) = s(a) + s(b).
        program = additivity_program(require_gea(diamond)).extended(
            sparse([((1, -1), 0), ((1, 0), 1)]))
        a, b = lp_feasible(program)
        state = state_of((0, a, b, a + b))
        assert fraction_values(state) == (frac(0), frac(1), frac(1), frac(2))
        rep = state_rep(diamond, [str(v) for v in fraction_values(state)])
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
        rep = state_rep(diamond, (0, 1, 0, 1))
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

    # Hand-made diagonals, additive or not: the coverage masks rebuilt from
    # them must give the reference walk's flag and first pair.  diamond is
    # 0, a, b, 1 with a + b = 1; chain_c3 is 0, 1, 2.
    @pytest.mark.parametrize("name, diagonals, expected", [
        ("diamond", ((),) * 4, (False, (1, 0))),  # m = 0
        ("diamond", ((0, 0),) * 4, (False, (1, 0))),  # all zeros
        ("diamond", ((0, 0), (1, 1), (1, 1), (2, 2)), (False, (1, 2))),  # equal columns
        ("diamond", ((0, 0), (1, 0), (0, 1), (1, 1)), (True, None)),
        ("diamond", ((0, 0), (2, 0), (0, 2), (2, 0)), (False, (3, 1))),  # only at the last
        ("chain_c3", ((0,), (2,), (1,)), (False, (2, 1))),  # only at the last
        ("chain_c3", ((0, 0), (1, 1), (2, 2)), (True, None)),  # equal columns
    ])
    def test_hand_made_diagonals_match_the_reference(self, name, diagonals, expected):
        table = corpus.load(name)
        rep = DiagonalRep(diagonals)
        assert verify_order_reflecting(rep, require_gea(table)) == expected
        assert reference_verify_order_reflecting(rep, table) == expected


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
            columns.append([v * scale for v in fraction_values(state)])
        else:
            columns.append([Fraction(draw(st.integers(-2, 6)), den) for _ in range(n)])
    rows = [[column[a] for column in columns] for a in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[b] = list(rows[a])
    if m and draw(st.integers(0, 3)) == 0:
        rows[table.zero][draw(st.integers(0, m - 1))] = Fraction(1, draw(st.integers(1, 6)))
    den = lcm(*(v.denominator for row in rows for v in row)) * draw(st.sampled_from([1, 1, 2, 6]))
    rep = DiagonalRep(tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                            for row in rows), den)
    assert fraction_operators(rep) == tuple(map(tuple, rows))
    return table, gea, rep


class TestIntegerChecksMatchFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(rational_reps())
    def test_verdicts_and_first_failures(self, case):
        table, gea, rep = case
        assert verify_morphism(rep, table) == reference_first_violation(rep, table)
        assert verify_injective(rep) == reference_verify_injective(rep)
        assert verify_order_reflecting(rep, gea) == reference_verify_order_reflecting(rep, table)
        assert fraction_norms(rep) == [reference_operator_norm(rep, a) for a in range(table.n)]
        # The operator norm bounds every diagonal, signed or not, so only a
        # negative entry fails: the first element that has one.
        negative = next((a for a, d in enumerate(rep.diagonals) if d and min(d) < 0), None)
        assert basis_bounded(rep, operator_norm(rep)) == (negative is None, negative)

    def test_corpus_and_population_reps(self):
        for table, gea, _ in CHECKED_TABLES:
            for search in (order_determining_set, separating_set):
                rep = build_representation(gea, search(gea).states)
                assert verify_morphism(rep, table) == reference_first_violation(rep, table)
                assert verify_injective(rep) == reference_verify_injective(rep)
                assert verify_order_reflecting(rep, gea) == \
                    reference_verify_order_reflecting(rep, table)
                assert fraction_norms(rep) == \
                    [reference_operator_norm(rep, a) for a in range(table.n)]


class TestNormsAndVectorStates:
    def test_chain_top_norm_is_two(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        assert fraction_norms(rep)[2] == 2

    def test_zero_norm_is_zero(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        assert fraction_norms(rep)[0] == 0

    def test_diamond_two_witness_top_norm(self, diamond):
        rep = state_rep(diamond, (0, 1, 0, 1), (0, 0, 1, 1))
        assert fraction_norms(rep)[3] == 1

    def test_norm_is_the_largest_absolute_entry(self):
        rep = DiagonalRep(((0, 0), (-5, 1)), 1)
        assert operator_norm(rep) == [0, 5]
        assert fraction_norms(rep)[1] == 5 == reference_operator_norm(rep, 1)
        rep = DiagonalRep(((0, 0), (-1, 3)), 2)
        assert operator_norm(rep) == [0, 3]
        assert fraction_norms(rep)[1] == Fraction(3, 2) == reference_operator_norm(rep, 1)

    def test_vector_state_at_basis_vectors_recovers_witnesses(self, diamond):
        gea = require_gea(diamond)
        witnesses = order_determining_set(gea)
        rep = build_representation(gea, witnesses.states)
        for slot, state in enumerate(witnesses.states):
            basis = FiniteVector.basis(rep.m, slot)
            for a in range(diamond.n):
                assert vector_state(rep, basis, a) == fraction_values(state)[a]

    def test_vector_state_of_zero_vector(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        assert vector_state(rep, FiniteVector((frac(0),)), 2) == 0

    def test_chain_unit_vector_value(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        assert vector_state(rep, FiniteVector((frac(1),)), 2) == 2

    def test_entries_above_two_to_the_64(self):
        big = 2 ** 64
        rep = diagonal_rep((0, 0, 0), (big + 3, 1, big), (2 * big + 6, 2, 2 * big),
                           (Fraction(big, 3), Fraction(1, 3), 5))
        assert rep.den == 3
        assert operator_norm(rep) == [0, 3 * (big + 3), 3 * (2 * big + 6), big]
        assert fraction_norms(rep) == [reference_operator_norm(rep, a) for a in range(4)]

    def test_length_mismatch_rejected(self, chain_c3):
        rep = state_rep(chain_c3, (0, 1, 2))
        with pytest.raises(InputError):
            vector_state(rep, FiniteVector((frac(1), frac(1))), 1)

    def test_boundedness_on_seeded_vectors(self, valid_corpus):
        rng = random.Random(5)
        for table in valid_corpus.values():
            rep = search_rep(table)
            for a, norm in enumerate(fraction_norms(rep)):
                for _ in range(25):
                    assert bounded_by(rep, a, norm, random_rational_vector(rng, rep.m))


def basis_bounded(rep, norms):
    """Positivity and the norm bounds norms[a] / rep.den in Fractions:
    vector_state and bounded_by at every basis vector, which for a diagonal
    operator decide both tests at every vector.  On failure the first
    element that fails either."""
    for a in range(len(rep.diagonals)):
        for s in range(rep.m):
            x = FiniteVector.basis(rep.m, s)
            norm = Fraction(norms[a], rep.den)
            if vector_state(rep, x, a) < 0 or not bounded_by(rep, a, norm, x):
                return False, a
    return True, None


def fraction_norms(rep):
    """operator_norm as Fractions."""
    return [Fraction(p, rep.den) for p in operator_norm(rep)]


def antichain(atoms):
    """Zero and `atoms` elements with no sum but those with zero."""
    n = atoms + 1
    sums = [(0, x, x) for x in range(n)] + [(x, 0, x) for x in range(1, n)]
    return AlgebraTable(("0",) + tuple(f"a{i}" for i in range(atoms)), 0, sums)


@st.composite
def nonnegative_states(draw):
    """A checked table and up to four states of nonnegative rational values,
    each over its own denominator, additive or not."""
    table, gea, _ = draw(st.sampled_from(CHECKED_TABLES))
    entry = st.builds(Fraction, st.integers(0, 6), st.integers(1, 6))
    rows = st.lists(entry, min_size=table.n, max_size=table.n)
    return gea, [state_of(draw(rows)) for _ in range(draw(st.integers(0, 4)))]


class TestBoundedByConstruction:
    """A built representation is positive and bounded by operator_norm:
    the build rejects negative values, so each norm is the largest entry."""

    def test_antichain_representations(self):
        for atoms in (16, 24):
            for search in (order_determining_set, separating_set):
                rep = search_rep(antichain(atoms), search)
                assert rep.m >= 1
                assert basis_bounded(rep, operator_norm(rep)) == (True, None)

    def test_corpus_representations(self):
        for _, gea, _ in CHECKED_TABLES:
            for search in (order_determining_set, separating_set):
                rep = build_representation(gea, search(gea).states)
                assert basis_bounded(rep, operator_norm(rep)) == (True, None)

    def test_zero_slots(self, chain_c3):
        # No state: every operator is the empty diagonal, with norm 0.
        rep = build_representation(require_gea(chain_c3), [])
        assert rep.m == 0 and operator_norm(rep) == [0, 0, 0]
        assert basis_bounded(rep, operator_norm(rep)) == (True, None)

    def test_fractional_entries(self, diamond):
        # The build need not be additive; over the lcm 231 each norm is
        # still the largest entry.
        rep = state_rep(diamond, ("0", "1/3", "2/7", "5/11"), ("0", "2/3", "4/7", "0"))
        assert rep.den == 231
        assert fraction_norms(rep) == [0, Fraction(2, 3), Fraction(4, 7), Fraction(5, 11)]
        assert basis_bounded(rep, operator_norm(rep)) == (True, None)

    @pytest.mark.parametrize("rows", [
        [(0, 1, 1, -2)],
        [(-1, 0, 0, 0)],
        [(0, 1, 0, 1), (0, 0, "-1/7", 1)],
        [(0, "1/2", "1/3", 1), (0, 1, 1, 2), (0, 1, 0, -1)],
        [(0, "1/6", "1/10", "-1/15")],
    ], ids=["last-element", "zero", "later-state", "last-of-three", "over-lcm-30"])
    def test_a_negative_value_anywhere_is_rejected(self, diamond, rows):
        with pytest.raises(InputError,
                           match="^each state needs one nonnegative value per element$"):
            state_rep(diamond, *rows)
        # Its sign alone was at fault: with |value| the states build, bounded.
        rep = state_rep(diamond, *([abs(Fraction(v)) for v in row] for row in rows))
        assert basis_bounded(rep, operator_norm(rep)) == (True, None)

    def test_operator_norm_is_the_least_bound(self):
        # One unit over rep.den less than a nonzero norm fails at its element.
        for _, gea, states in CHECKED_TABLES:
            rep = build_representation(gea, states)
            norms = operator_norm(rep)
            for a, norm in enumerate(norms):
                if norm:
                    lowered = norms[:a] + [norm - 1] + norms[a + 1:]
                    assert basis_bounded(rep, lowered) == (False, a)

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_states())
    def test_any_nonnegative_states(self, case):
        gea, states = case
        rep = build_representation(gea, states)
        assert [list(column) for column in zip(*fraction_operators(rep))] == \
            [list(fraction_values(s)) for s in states]
        assert all(min(d, default=0) >= 0 for d in rep.diagonals)
        norms = operator_norm(rep)
        assert norms == [max(d, default=0) for d in rep.diagonals]
        assert basis_bounded(rep, norms) == (True, None)


class TestRoundTrip:
    def test_slots_round_trip_the_corpus_witnesses(self, valid_corpus):
        for table in valid_corpus.values():
            gea = require_gea(table)
            for search in (order_determining_set, separating_set):
                witnesses = search(gea)
                rep = build_representation(gea, witnesses.states)
                assert reference_extract_states(rep) == witnesses.states

    def test_zero_rep_recovers_zero_states(self, diamond):
        rep = state_rep(diamond, (0, 0, 0, 0))
        assert [fraction_values(s) for s in reference_extract_states(rep)] == [(frac(0),) * 4]


class TestPositivityAndDiagonalOrder:
    def test_entries_nonnegative_and_forms_nonnegative(self, valid_corpus):
        rng = random.Random(11)
        for table in valid_corpus.values():
            rep = search_rep(table)
            for a in range(table.n):
                assert all(entry >= 0 for entry in fraction_operators(rep)[a])
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
        rep = state_rep(chain_c3, (0, 1, 2))
        image = apply_operator(rep, 2, FiniteVector((Fraction(3, 2),)))
        assert image.coords == (Fraction(3),)
