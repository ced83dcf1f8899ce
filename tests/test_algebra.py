import copy
import importlib.util
import itertools
import json
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea import algebra, corpus
from gea.algebra import (AlgebraTable, MorphismSpec, Violation, check_ea_axioms,
                         check_gea_axioms, classify_morphism, induced_order, is_sub_gea,
                         require_gea)
from gea.cli import main
from gea.effects import EffectMatrix
from gea.errors import ContractError, InputError
from gea.generate import random_gea, random_population
from gea.represent import DiagonalRep
from gea.states import GeneralizedState, StateWitnessSet
from reference import (axiom_witnesses, leq, reference_classify_morphism, reference_ea_axioms,
                       reference_gea_axioms, reference_induced_order, reference_kahn, triples)


def table(labels, sums, unit=None):
    """The table with zero 0 and these sums, a {(i, j): k} dict."""
    return AlgebraTable(tuple(labels), 0, triples(sums), unit)


def with_zero_sums(n, extra):
    sums = {(0, 0): 0}
    for x in range(1, n):
        sums[(0, x)] = x
        sums[(x, 0)] = x
    sums.update(extra)
    return sums


class TestTableValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError, match="^element labels must be unique$"):
            table(["0", "a", "a"], with_zero_sums(3, {}))

    def test_out_of_range_sum_rejected(self):
        with pytest.raises(InputError, match=r"^sum entry \(0,5\)->0 out of range$"):
            table(["0", "a"], {(0, 5): 0})

    @pytest.mark.parametrize("labels, zero, unit, message", [
        ((), 0, None, "algebra needs at least one element"),
        (("0", "a"), 2, None, "zero index 2 out of range"),
        (("0", "a"), 0, -1, "unit index -1 out of range"),
    ])
    def test_bad_zero_or_unit_rejected(self, labels, zero, unit, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            AlgebraTable(labels, zero=zero, sums=(), unit=unit)

    def test_unit_equal_to_zero_rejected(self):
        with pytest.raises(InputError, match="^unit must differ from zero$"):
            AlgebraTable(("0", "a"), 0, triples(with_zero_sums(2, {})), unit=0)

    def test_singleton_unit_may_be_zero(self):
        AlgebraTable(("0",), 0, [(0, 0, 0)], unit=0)

    def test_sums_sorted_whatever_the_insertion_order(self):
        sums = with_zero_sums(3, {(1, 1): 2})
        t = table(["0", "a", "b"], dict(reversed(list(sums.items()))))
        assert list(t.sums.items()) == sorted(sums.items())


def frozen_records():
    """One record of each frozen type, with the names of its fields."""
    gea = require_gea(table(["0", "a"], with_zero_sums(2, {})))
    return [
        (gea.table, ("elements", "zero", "unit", "rows", "cols", "sums")),
        (Violation("GE1", (0, 1), "a+b"), ("axiom", "witness", "message")),
        (check_gea_axioms(gea.table), ("violations",)),
        (gea, ("table", "above", "atoms", "topological")),
        (MorphismSpec(gea, gea, (0, 1)), ("source", "target", "map")),
        (classify_morphism(MorphismSpec(gea, gea, (0, 0))),
         ("is_morphism", "injective", "order_reflecting", "embedding", "failure")),
        (GeneralizedState((0, 1)), ("nums", "den")),
        (StateWitnessSet("order", [GeneralizedState((0, 1))], [(1, 0)], []),
         ("goal", "states", "provenance", "failures")),
        (DiagonalRep(((0,), (1,))), ("diagonals", "den")),
        (EffectMatrix(np.eye(2)), ("mat",)),
    ]


FROZEN_RECORDS = frozen_records()


@pytest.mark.parametrize("record, fields", FROZEN_RECORDS,
                         ids=[type(record).__name__ for record, _ in FROZEN_RECORDS])
def test_frozen_record_refuses_assignment_and_survives_copy(record, fields):
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        for name in fields:
            assert repr(getattr(twin, name)) == repr(getattr(record, name))


class TestGeaAxioms:
    def test_excd_passes(self, excd):
        assert check_gea_axioms(excd).passed

    def test_singleton_passes(self, singleton):
        assert check_gea_axioms(singleton).passed

    def test_all_valid_corpus_passes(self, valid_corpus):
        for name, t in valid_corpus.items():
            report = check_gea_axioms(t)
            assert report.passed, (name, report.violations)

    def test_cancellation_violation_with_witness(self):
        t = corpus.load("broken_ge3")
        report = check_gea_axioms(t)
        assert not report.passed
        a, b, d = t.elements.index("a"), t.elements.index("b"), t.elements.index("d")
        assert (a, b, d) in axiom_witnesses(report, "GE3")

    def test_one_sided_sum_is_ge1_violation(self):
        t = table(["0", "a", "b"], with_zero_sums(3, {(1, 2): 2}))
        report = check_gea_axioms(t)
        assert axiom_witnesses(report, "GE1")

    def test_half_associative_chain_is_ge2_violation(self):
        # x+x = y is defined, so (x+x)+x needs x+(x+x): both are undefined,
        # fine; but adding y+x without x+(x+y)... build the classic breach:
        # x+x=y and y+y=x makes (x+x)+y defined while x+(x+y) is not.
        t = table(["0", "x", "y"],
                  with_zero_sums(3, {(1, 1): 2, (2, 2): 1}))
        report = check_gea_axioms(t)
        assert axiom_witnesses(report, "GE2")

    def test_sum_to_zero_is_ge4_violation(self):
        t = table(["0", "a"], with_zero_sums(2, {(1, 1): 0}))
        report = check_gea_axioms(t)
        assert axiom_witnesses(report, "GE4") == [(1, 1)]

    def test_missing_zero_sum_is_ge5_violation(self):
        t = table(["0", "a"], {(0, 0): 0})
        report = check_gea_axioms(t)
        assert axiom_witnesses(report, "GE5")


# Tables on which one of the scan's whole-table tests of GE3, GE4 and GE5
# fails: the repeat test of a row's values, the count of sums to zero
# (1 with 0 + 0 = 0, else 0) and the comparison of zero's row with the
# identity.  Each gives the violations that test must then list.
BULK_CASES = {
    # Two-sided a + b = 0: three sums to zero, 0 + 0 = 0 among them.
    "nonzero sum to zero": (table(["0", "a", "b"], with_zero_sums(3, {(1, 2): 0, (2, 1): 0})),
                            {"GE4": [(1, 2), (2, 1)]}),
    # One-sided a + b = 0: two sums to zero, one more than 0 + 0 = 0.
    "one-sided sum to zero": (table(["0", "a", "b"], with_zero_sums(3, {(1, 2): 0})),
                              {"GE4": [(1, 2)]}),
    # 0 + 0 undefined, the rest of zero's row and column the identity.
    "undefined 0 + 0": (table(["0", "a"], {(0, 1): 1, (1, 0): 1}), {"GE4": [], "GE5": [(0,)]}),
    # And a + a = 0: one sum to zero where none may be.
    "undefined 0 + 0, a + a = 0": (table(["0", "a"], {(0, 1): 1, (1, 0): 1, (1, 1): 0}),
                                   {"GE4": [(1, 1)], "GE5": [(0,)]}),
    # 0 + a = b on both sides: zero's row is wrong in one cell.
    "zero row wrong in one cell": (
        table(["0", "a", "b"], {(0, 0): 0, (0, 1): 2, (1, 0): 2, (0, 2): 2, (2, 0): 2}),
        {"GE4": [], "GE5": [(1,)]}),
    # a + b = a + c = c: a repeated value in the nonzero row of a.
    "repeated value in a row": (
        table(["0", "a", "b", "c"], with_zero_sums(4, {(1, 2): 3, (2, 1): 3, (1, 3): 3,
                                                       (3, 1): 3})),
        {"GE3": [(1, 2, 3), (3, 0, 1)], "GE4": [], "GE5": []}),
}


@pytest.mark.parametrize("name", sorted(BULK_CASES))
def test_failing_bulk_test_lists_its_violations(name):
    t, expected = BULK_CASES[name]
    report = check_gea_axioms(t)
    assert report == reference_gea_axioms(t)
    for axiom, witnesses in expected.items():
        assert axiom_witnesses(report, axiom) == witnesses, axiom


def dense_associativity(table, axiom_id):
    """Reference scan of every triple (x, y, z) in lexicographic order."""
    out = []
    lab = table.elements
    n = table.n
    for x in range(n):
        for y in range(n):
            xy = table.sums.get((x, y))
            for z in range(n):
                left = table.sums.get((xy, z)) if xy is not None else None
                yz = table.sums.get((y, z))
                right = table.sums.get((x, yz)) if yz is not None else None
                left_defined = xy is not None and left is not None
                right_defined = yz is not None and right is not None
                if left_defined != right_defined:
                    side = "left" if left_defined else "right"
                    out.append(Violation(axiom_id, (x, y, z),
                                         f"only the {side} side of ({lab[x]}+{lab[y]})+{lab[z]} is defined"))
                elif left_defined and left != right:
                    out.append(Violation(axiom_id, (x, y, z),
                                         f"({lab[x]}+{lab[y]})+{lab[z]}={lab[left]} but "
                                         f"{lab[x]}+({lab[y]}+{lab[z]})={lab[right]}"))
    return out


@st.composite
def partial_tables(draw):
    """Tables on n <= 8 elements with zero 0 and unit n - 1: either a chain
    with sums dropped (one-sided and half-defined triples) and overwritten
    (mismatched sides), or an arbitrary partial operation."""
    n = draw(st.integers(min_value=1, max_value=8))
    index = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        sums = {(i, j): i + j for i in range(n) for j in range(n) if i + j < n}
        for pair in draw(st.lists(st.sampled_from(sorted(sums)), max_size=4)):
            sums.pop(pair, None)
        sums.update(draw(st.dictionaries(st.tuples(index, index), index, max_size=3)))
    else:
        sums = draw(st.dictionaries(st.tuples(index, index), index, max_size=n * n))
    return AlgebraTable(tuple(f"e{i}" for i in range(n)), 0, triples(sums), n - 1)


class TestAssociativityScan:
    @settings(max_examples=300, deadline=None)
    @given(partial_tables())
    def test_matches_dense_scan(self, t):
        gea = [v for v in check_gea_axioms(t).violations if v.axiom == "GE2"]
        ea = [v for v in check_ea_axioms(t, check_gea_axioms(t)).violations if v.axiom == "E2"]
        assert gea == dense_associativity(t, "GE2")
        assert ea == dense_associativity(t, "E2")

    @settings(max_examples=300, deadline=None)
    @given(partial_tables())
    def test_e1_and_e2_are_ge1_and_ge2_relabelled(self, t):
        gea = check_gea_axioms(t)
        ea = check_ea_axioms(t, gea)
        assert [(v.axiom, v.witness, v.message) for v in ea.violations
                if v.axiom in ("E1", "E2")] == \
            [("E" + v.axiom[2:], v.witness, v.message) for v in gea.violations
             if v.axiom in ("GE1", "GE2")]


@st.composite
def damaged_random_tables(draw):
    """A random_gea table on n <= 24 elements with 0-4 sums dropped on both
    sides, 0-4 pairs overwritten on both sides, and 0-4 sums made
    one-sided, with a unit drawn among the nonzero elements."""
    n = draw(st.integers(min_value=1, max_value=24))
    base = random_gea(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    sums = dict(base.sums)
    index = st.integers(min_value=0, max_value=n - 1)
    for i, j in draw(st.lists(st.sampled_from(sorted(sums)), max_size=4)):
        sums.pop((i, j), None)
        sums.pop((j, i), None)
    for (i, j), k in draw(st.lists(st.tuples(st.tuples(index, index), index), max_size=4)):
        sums[(i, j)] = sums[(j, i)] = k
    for pair in draw(st.lists(st.sampled_from(sorted(sums)), max_size=4) if sums else st.just([])):
        sums.pop(pair, None)
    unit = draw(st.integers(min_value=1, max_value=n - 1)) if n > 1 else 0
    return AlgebraTable(base.elements, base.zero, triples(sums), unit)


@st.composite
def mutated_random_tables(draw):
    """A random_gea table on 2-14 elements with 1-3 mutations, each kept
    commutative: a defined nonzero sum changed to another element, deleted,
    or an undefined nonzero sum added.  Most stay close to a GEA, so GE2 is
    the axiom they break, if any."""
    n = draw(st.integers(min_value=2, max_value=14))
    base = random_gea(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    sums = dict(base.sums)
    nonzero = st.integers(min_value=1, max_value=n - 1)
    for kind in draw(st.lists(st.sampled_from(["change", "delete", "add"]),
                              min_size=1, max_size=3)):
        defined = sorted((i, j) for i, j in sums if i and j)
        if kind == "add" or not defined:
            i, j = draw(st.tuples(nonzero, nonzero))
            if (i, j) not in sums:
                sums[(i, j)] = sums[(j, i)] = draw(nonzero)
            continue
        i, j = draw(st.sampled_from(defined))
        old = sums.pop((i, j))
        sums.pop((j, i), None)
        if kind == "change":
            sums[(i, j)] = sums[(j, i)] = draw(st.integers(0, n - 1).filter(
                lambda k: k != old))
    return AlgebraTable(base.elements, base.zero, triples(sums))


class TestScanMatchesReference:
    """The scans over the padded rows against the walk over the defined
    sums in tests/reference.py: the same violations (axiom, witness and
    message) in the same order, and the same induced order."""

    @settings(max_examples=200, deadline=None)
    @given(damaged_random_tables())
    def test_damaged_random_tables(self, t):
        gea = check_gea_axioms(t)
        assert gea == reference_gea_axioms(t)
        assert check_ea_axioms(t, gea) == reference_ea_axioms(t)
        assert induced_order(t) == reference_induced_order(t)

    @settings(max_examples=200, deadline=None)
    @given(mutated_random_tables())
    def test_mutated_random_tables(self, t):
        assert check_gea_axioms(t) == reference_gea_axioms(t)

    def test_corpus(self):
        for name in corpus.VALID + corpus.BROKEN:
            t = corpus.load(name)
            gea = check_gea_axioms(t)
            assert gea == reference_gea_axioms(t), name
            if t.unit is not None:
                assert check_ea_axioms(t, gea) == reference_ea_axioms(t), name
            assert induced_order(t) == reference_induced_order(t), name


@st.composite
def zero_row_tables(draw):
    """Random partial tables on n <= 6 elements with zero 0: an arbitrary,
    often one-sided, operation on the nonzero elements, and a zero row and
    column that are the identity but for up to two sums 0 + x changed or
    dropped on both sides."""
    n = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=n - 1)
    nonzero = st.integers(min_value=1, max_value=max(n - 1, 1))
    extra = draw(st.dictionaries(st.tuples(nonzero, nonzero), index,
                                 max_size=(n - 1) ** 2)) if n > 1 else {}
    sums = with_zero_sums(n, extra)
    for x, k in draw(st.lists(st.tuples(index, st.none() | index), max_size=2)):
        for pair in ((0, x), (x, 0)):
            if k is None:
                sums.pop(pair, None)
            else:
                sums[pair] = k
    return table([f"e{i}" for i in range(n)], sums)


def perfbench_tables():
    """The benchmark's table families, each in one shuffled index order,
    read from perfbench/families.py, which builds them from their
    definitions."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    F = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(F)
    builds = {f"C{n}": (F.chain, n) for n in range(8, 15)}
    builds |= {f"cube{k}": (F.cube, k) for k in (3, 4, 5, 6)}
    builds |= {f"anti{k}": (F.antichain, k) for k in (16, 24)}
    parts = {"C3xC4": (3, 4), "C4xC4": (4, 4), "C4xC8": (4, 8), "C4^3": (4, 4, 4)}
    tables = {name: f(k) for name, (f, k) in builds.items()}
    tables |= {name: F.product(*map(F.chain, p)) for name, p in parts.items()}
    tables["NS"] = F.no_states()
    tables["C3xNS"] = F.product(F.chain(3), F.no_states())
    tables["C8+NS"] = F.horizontal_sum(F.chain(8), F.no_states())
    tables["cube3+NS"] = F.horizontal_sum(F.cube(3), F.no_states())
    out = {}
    for seed, (name, data) in enumerate(tables.items()):
        shown, _ = F.disguise(data, random.Random(seed))
        index = {label: i for i, label in enumerate(shown["elements"])}
        out[name] = AlgebraTable(tuple(shown["elements"]), index[shown["zero"]],
                                 [(index[x], index[y], index[z]) for x, y, z in shown["sums"]],
                                 index.get(shown.get("unit")))
    return out


def cyclic_ge2_tables():
    """Tables on which GE2 holds though the sums of nonzero elements have a
    cycle: Z_3 and Z_4, the idempotent a + a = a, and the join semilattice
    on two atoms.  None is a GEA."""
    def group(n):
        return table([f"g{i}" for i in range(n)],
                     {(i, j): (i + j) % n for i in range(n) for j in range(n)})
    join = {(i, j): i | j for i in range(4) for j in range(4)}
    return {"Z3": group(3), "Z4": group(4),
            "idempotent": table(["0", "a"], with_zero_sums(2, {(1, 1): 1})),
            "join": table(["0", "a", "b", "ab"], join)}


def holds_calls(monkeypatch):
    """A list that records each call of algebra._holds as (every x tested,
    zero tested, passed), with zero read off the table that
    algebra._associativity was given."""
    calls, zeros = [], []
    holds, associativity = algebra._holds, algebra._associativity
    monkeypatch.setattr(algebra, "_associativity", lambda table, *rest: zeros.append(
        table.zero) or associativity(table, *rest))
    monkeypatch.setattr(algebra, "_holds", lambda xs, *rest: calls.append(
        (isinstance(xs, range), zeros[-1] in xs, holds(xs, *rest))) or calls[-1][-1])
    return calls


class TestAtomTriples:
    """GE2 tested in one pass: on the triples whose first element is an
    atom, or on every triple after a cycle or a one-sided sum, with the
    violations listed when that pass fails: the same report as the
    reference, and the reference's Kahn order."""

    def test_reports_match_and_both_paths_run(self, monkeypatch):
        calls = holds_calls(monkeypatch)

        @settings(max_examples=400, deadline=None)
        @given(st.one_of(mutated_random_tables(), zero_row_tables()))
        def matches(t):
            before = len(calls)
            assert check_gea_axioms(t) == reference_gea_axioms(t)
            assert len(calls) == before + 1  # one verdict pass decides GE2

        matches()
        assert (False, False, True) in calls  # passed on the atoms alone
        assert (False, False, False) in calls and (True, True, False) in calls  # failed on either
        assert (True, True, True) in calls
        assert not any(zero and not every for every, zero, _ in calls)

    def test_every_two_sided_table_on_three_elements(self, monkeypatch):
        # Every commutative partial operation on {0, a, b}: each of the six
        # unordered pairs has no sum or one of three, so 4^6 tables.  The
        # atom pass never tests zero's triples, whatever the zero row, and
        # every report is the reference's.  On 44 tables GE2 passes at the
        # atoms though 0 + x != x for some x, so zero's triples, never
        # compared, hold by their mirrors alone.
        calls = holds_calls(monkeypatch)
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        odd_zero_rows = 0
        for values in itertools.product((None, 0, 1, 2), repeat=len(pairs)):
            sums = {}
            for (i, j), k in zip(pairs, values):
                if k is not None:
                    sums[(i, j)] = sums[(j, i)] = k
            t = table(["0", "a", "b"], sums)
            assert check_gea_axioms(t) == reference_gea_axioms(t), sums
            every, zero, passed = calls[-1]
            assert zero == every
            odd_zero_rows += passed and not every and t.rows[0][:3] != [0, 1, 2]
        assert len(calls) == 4096 and odd_zero_rows == 44

    @pytest.mark.parametrize("name", sorted(cyclic_ge2_tables()))
    def test_ge2_holds_through_the_fall_through_on_a_cycle(self, name, monkeypatch):
        t = cyclic_ge2_tables()[name]
        calls = holds_calls(monkeypatch)
        report, _, order = check_gea_axioms(t, kahn=True)
        assert calls == [(True, True, True)]
        assert not axiom_witnesses(report, "GE2")
        assert report == reference_gea_axioms(t)
        assert len(order) < t.n - 1

    def test_one_sided_table_is_tested_at_every_x(self, monkeypatch):
        # a + a = 0 and a + b = b, with b + a undefined: the triples of zero
        # and of the atom a hold, and Kahn's order a, b is complete, but
        # b = a + b is no sum of elements before b, and (b + a) + a is
        # undefined where b + (a + a) = b.  Only a two-sided table may stop
        # at the atoms.
        t = table(["0", "a", "b"], with_zero_sums(3, {(1, 1): 0, (1, 2): 2}))
        calls = holds_calls(monkeypatch)
        report, _, order = check_gea_axioms(t, kahn=True)
        assert calls == [(True, True, False)]
        assert order == (1, 2)
        assert (2, 1, 1) in axiom_witnesses(report, "GE2")
        assert report == reference_gea_axioms(t)

    def test_kahn_order_matches_the_reference(self):
        tables = {name: corpus.load(name) for name in corpus.VALID + corpus.BROKEN}
        tables |= {f"random{n}": random_gea(random.Random(n), n) for n in range(1, 25)}
        tables |= perfbench_tables()
        for name, t in tables.items():
            report, *kahn = check_gea_axioms(t, kahn=True)
            assert tuple(kahn) == reference_kahn(t), name
            if report.passed:
                gea = require_gea(t)
                assert (gea.atoms, gea.topological) == reference_kahn(t), name
                assert len(gea.topological) == t.n - 1, name


class TestEaAxioms:
    def test_diamond_passes(self, diamond):
        assert check_ea_axioms(diamond, check_gea_axioms(diamond)).passed

    def test_chain_passes(self, chain_c3):
        assert check_ea_axioms(chain_c3, check_gea_axioms(chain_c3)).passed

    def test_cube_passes(self, cube8):
        assert check_ea_axioms(cube8, check_gea_axioms(cube8)).passed

    def test_missing_complement_is_e3_violation(self):
        t = corpus.load("ea_no_complement")
        report = check_ea_axioms(t, check_gea_axioms(t))
        assert not report.passed
        assert (t.elements.index("a"),) in axiom_witnesses(report, "E3")

    def test_double_complement_is_e3_violation(self, diamond):
        sums = dict(diamond.sums)
        a, b, one = 1, 2, 3
        sums[(a, a)] = one  # a now has complements a and b
        t = AlgebraTable(diamond.elements, 0, triples(sums), unit=one)
        report = check_ea_axioms(t, check_gea_axioms(t))
        assert any(w[0] == a and len(w) == 3 for w in axiom_witnesses(report, "E3"))

    def test_unit_sum_with_nonzero_is_e4_violation(self, chain_c3):
        sums = dict(chain_c3.sums)
        sums[(2, 1)] = 1  # nonsense entry 1+h = h
        sums[(1, 2)] = 1
        t = AlgebraTable(chain_c3.elements, 0, triples(sums), unit=2)
        report = check_ea_axioms(t, check_gea_axioms(t))
        assert axiom_witnesses(report, "E4")

    def test_missing_unit_is_input_error(self, excd):
        with pytest.raises(InputError):
            check_ea_axioms(excd, check_gea_axioms(excd))

    def test_ea_pass_implies_gea_pass_without_unit(self, valid_corpus):
        for name in corpus.EFFECT_ALGEBRAS:
            t = valid_corpus[name]
            assert check_ea_axioms(t, check_gea_axioms(t)).passed
            forgotten = AlgebraTable(t.elements, t.zero, t.triples(), unit=None)
            assert check_gea_axioms(forgotten).passed


def relation_pairs(order, n):
    return {(i, j) for i in range(n) for j in range(n) if leq(order, i, j)}


class TestInducedOrder:
    def test_excd_order(self, excd):
        order = induced_order(excd)
        zero, p1, p2 = 0, 1, 2
        assert relation_pairs(order, 3) == {(zero, zero), (p1, p1), (p2, p2),
                                            (zero, p1), (zero, p2)}

    def test_singleton_order(self, singleton):
        order = induced_order(singleton)
        assert relation_pairs(order, 1) == {(0, 0)}

    def test_diamond_order(self, diamond):
        order = induced_order(diamond)
        zero, a, b, one = 0, 1, 2, 3
        assert relation_pairs(order, 4) == {
            (zero, zero), (a, a), (b, b), (one, one),
            (zero, a), (zero, b), (zero, one), (a, one), (b, one)}

    def test_diff_matches_leq(self, valid_corpus, capsys):
        # `gea order` reports x_j - x_i = x_k under "x_j,x_i" exactly when
        # x_i <= x_j, with x_i + x_k = x_j.
        for name, t in valid_corpus.items():
            assert main(["order", str(corpus.path(name)), "--json"]) == 0
            differences = json.loads(capsys.readouterr().out)["order"]["differences"]
            order = induced_order(t)
            lab = t.elements
            for i in range(t.n):
                for j in range(t.n):
                    key = f"{lab[j]},{lab[i]}"
                    assert leq(order, i, j) == (key in differences)
                    if leq(order, i, j):
                        assert t.sums.get((i, t.elements.index(differences[key]))) == j

    def test_axiom_failing_table_is_contract_error(self):
        t = corpus.load("broken_ge3")
        with pytest.raises(ContractError):
            require_gea(t)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_partial_order_on_random_tables(self, seed):
        for t in random_population(seed, 40):
            order = require_gea(t).above
            pairs = relation_pairs(order, t.n)
            for i in range(t.n):
                assert (i, i) in pairs
            for i, j in pairs:
                if i != j:
                    assert (j, i) not in pairs
            for i, j in pairs:
                for k in range(t.n):
                    if (j, k) in pairs:
                        assert (i, k) in pairs

    @pytest.mark.parametrize("seed", [7, 11])
    def test_difference_is_unique_on_random_tables(self, seed):
        # cancellation makes y - x single valued
        for t in random_population(seed, 40):
            for i in range(t.n):
                for j in range(t.n):
                    solutions = {k for k in range(t.n) if t.sums.get((i, k)) == j}
                    assert len(solutions) <= 1


class TestSubGea:
    def test_zero_and_atom_of_excd(self, excd):
        ok, triple = is_sub_gea([0, 1], excd)
        assert ok and triple is None

    def test_projector_image_in_extension_fails(self, excd_ext):
        ok, triple = is_sub_gea([0, 1, 2], excd_ext)
        assert not ok
        assert triple == (1, 2, 3)  # pi1 + pi2 = id escapes the subset

    def test_whole_algebra(self, cube8):
        ok, _ = is_sub_gea(range(cube8.n), cube8)
        assert ok

    def test_missing_zero_fails(self, diamond):
        ok, triple = is_sub_gea([1, 3], diamond)
        assert not ok


def checked_spec(source, target, images):
    return MorphismSpec(require_gea(source), require_gea(target), images)


class TestClassifyMorphism:
    def test_identity_on_diamond(self, diamond):
        report = classify_morphism(checked_spec(diamond, diamond, (0, 1, 2, 3)))
        assert (report.is_morphism, report.injective,
                report.order_reflecting, report.embedding) == (True, True, True, True)

    def test_inclusion_of_excd_is_not_embedding(self, excd, excd_ext):
        report = classify_morphism(checked_spec(excd, excd_ext, (0, 1, 2)))
        assert report.is_morphism and report.injective and report.order_reflecting
        assert not report.embedding

    def test_constant_zero_on_diamond(self, diamond):
        report = classify_morphism(checked_spec(diamond, diamond, (0, 0, 0, 0)))
        assert report.is_morphism
        assert not report.injective
        assert not report.order_reflecting
        assert not report.embedding

    def test_sum_dropping_map_is_not_morphism(self, diamond, excd):
        # a+b is defined in the diamond but images carry no nonzero sum
        report = classify_morphism(checked_spec(diamond, excd, (0, 1, 2, 2)))
        assert not report.is_morphism
        assert report.failure is not None

    def test_out_of_range_image_rejected(self, diamond, excd):
        with pytest.raises(InputError):
            checked_spec(diamond, excd, (0, 1, 2, 9))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), same=st.booleans(), fix_zero=st.booleans(),
           seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
           sizes=st.tuples(st.integers(1, 7), st.integers(1, 7)))
    def test_matches_reference_on_random_maps(self, data, same, fix_zero, seeds, sizes):
        """All five fields, failure included, over random maps between
        random_gea tables and from a table to itself.  A map that fixes zero
        keeps every zero sum, so more of them get past additivity."""
        source = random_gea(random.Random(seeds[0]), sizes[0])
        target = source if same else random_gea(random.Random(seeds[1]), sizes[1])
        images = st.integers(0, target.n - 1)
        f = data.draw(st.lists(images, min_size=source.n, max_size=source.n))
        if fix_zero:
            f[0] = 0
        spec = checked_spec(source, target, tuple(f))
        assert classify_morphism(spec) == reference_classify_morphism(spec)

    def test_corpus_morphisms_satisfy_implication_chain(self):
        for name in corpus.MORPHISMS:
            report = classify_morphism(corpus.load_morphism(name))
            assert not report.embedding or report.order_reflecting
            assert not report.order_reflecting or report.injective
