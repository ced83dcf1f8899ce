"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All exact-arithmetic checks use zero tolerance; the floating-point
matrix checks use the documented 1e-9.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from gea import corpus
from gea.algebra import check_ea_axioms, check_gea_axioms, classify_morphism, require_gea
from gea.effects import (EffectMatrix, demo_excd, gdh_sum, generalized_vector_state,
                         spectral_flags, vector_witness)
from gea.generate import random_population
from gea.lp import lp_feasible
from gea.represent import (build_representation, operator_norm, verify_injective,
                           verify_order_reflecting)
from gea.states import order_determining_set, separating_set
from reference import (FiniteVector, apply_operator, axiom_witnesses, basic_solution_feasible,
                       bounded_by, fraction_operators, pair_programs, random_positive_matrix,
                       random_rational_vector, random_vector, reference_extract_states,
                       reference_pair_programs)

POPULATION_SEED = 1729
POPULATION_SIZE = 200
VECTOR_SEED = 0

_timings = {}


def _verdict(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def population(valid_corpus):
    start = time.monotonic()
    tables = list(valid_corpus.values())
    tables += list(random_population(POPULATION_SEED, POPULATION_SIZE))
    _timings["generation"] = time.monotonic() - start
    return tables


def test_criterion_1_projector_demo():
    start = time.monotonic()
    demo = demo_excd()
    elapsed = time.monotonic() - start
    ok = (demo["gea_axioms_pass"] is True
          and demo["order_determining_found"] is True
          and demo["is_morphism"] is True
          and demo["injective"] is True
          and demo["order_reflecting"] is True
          and demo["embedding"] is False
          and demo["sub_gea_violation"] == ["pi1", "pi2", "id"]
          and elapsed < 1.0)
    _verdict(1, "projector demo reproduction", ok, elapsed)
    assert ok


def test_criterion_2_recovery_identity(valid_corpus):
    ok = True
    worst = 0.0
    for name, table in valid_corpus.items():
        start = time.monotonic()
        gea = require_gea(table)
        for search in (order_determining_set, separating_set):
            witnesses = search(gea)
            rep = build_representation(gea, witnesses.states)
            if reference_extract_states(rep) != witnesses.states:
                ok = False
        per_algebra = time.monotonic() - start
        worst = max(worst, per_algebra)
        if per_algebra >= 1.0:
            ok = False
    _verdict(2, "slot-exact state recovery", ok, worst)
    assert ok


def test_criterion_3_separation_iff_injective(population):
    start = time.monotonic()
    mismatches = []
    for index, table in enumerate(population):
        gea = require_gea(table)
        witnesses = separating_set(gea)
        rep = build_representation(gea, witnesses.states)
        injective, _ = verify_injective(rep)
        if witnesses.ok != injective:
            mismatches.append(index)
    elapsed = time.monotonic() - start + _timings.get("generation", 0.0)
    ok = not mismatches and elapsed < 60.0
    _verdict(3, f"separation equivalence over {len(population)} tables", ok, elapsed)
    assert ok, mismatches


def test_criterion_4_order_determining_iff_order_reflecting(population):
    start = time.monotonic()
    mismatches = []
    for index, table in enumerate(population):
        gea = require_gea(table)
        witnesses = order_determining_set(gea)
        rep = build_representation(gea, witnesses.states)
        reflecting, _ = verify_order_reflecting(rep, gea)
        if witnesses.ok != reflecting:
            mismatches.append(index)
    elapsed = time.monotonic() - start + _timings.get("generation", 0.0)
    ok = not mismatches and elapsed < 60.0
    _verdict(4, f"order equivalence over {len(population)} tables", ok, elapsed)
    assert ok, mismatches


def test_criterion_5_boundedness(valid_corpus):
    start = time.monotonic()
    rng = random.Random(VECTOR_SEED)
    ok = True
    for table in valid_corpus.values():
        gea = require_gea(table)
        rep = build_representation(gea, order_determining_set(gea).states)
        for a, p in enumerate(operator_norm(rep)):
            norm = Fraction(p, rep.den)
            for _ in range(100):
                x = random_rational_vector(rng, rep.m)
                if not bounded_by(rep, a, norm, x):
                    ok = False
            if rep.m and rep.diagonals[a]:
                argmax = fraction_operators(rep)[a].index(norm)
                basis = FiniteVector.basis(rep.m, argmax)
                if apply_operator(rep, a, basis).norm_sq() != norm * norm:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(5, "exact operator norm bounds on 100 seeded vectors", ok, elapsed)
    assert ok


def test_criterion_6_lp_oracle_equivalence(valid_corpus):
    start = time.monotonic()
    programs = 0
    mismatches = 0
    # The atom program's pair LPs and the reference program's, one variable
    # per nonzero element and one row per defined sum.
    tables = [t for t in valid_corpus.values() if t.n <= 6]
    tables += random_population(POPULATION_SEED + 1, 40)
    for table in tables:
        for program in itertools.chain(pair_programs(table), reference_pair_programs(table)):
            programs += 1
            if (lp_feasible(program) is None) != (basic_solution_feasible(program) is None):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and programs > 200
    _verdict(6, f"simplex vs basic-solution oracle on {programs} programs", ok, elapsed)
    assert ok


def test_criterion_7_operator_model_consistency():
    start = time.monotonic()
    ok = True
    for dim in (2, 3, 4, 8, 16):
        rng = random.Random(1000 + dim)
        for trial in range(200):
            a = random_positive_matrix(rng, dim)
            if trial % 2 == 0:
                b = EffectMatrix(a.mat + random_positive_matrix(rng, dim).mat)
            else:
                b = random_positive_matrix(rng, dim)
            witness = vector_witness(a, b)
            positive = spectral_flags(EffectMatrix(b.mat - a.mat))[0]
            if (witness is None) != positive:
                ok = False
            if witness is not None:
                gap = (generalized_vector_state(witness, a)
                       - generalized_vector_state(witness, b))
                if not gap > 1e-9:
                    ok = False
            x = random_vector(rng, dim)
            lhs = generalized_vector_state(x, gdh_sum(a, b))
            rhs = generalized_vector_state(x, a) + generalized_vector_state(x, b)
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs), abs(rhs)):
                ok = False
    elapsed = time.monotonic() - start
    _verdict(7, "vector witness and additivity at d in {2,3,4,8,16}", ok, elapsed)
    assert ok


def test_criterion_8_axiom_checker_soundness(valid_corpus):
    start = time.monotonic()
    broken = corpus.load("broken_ge3")
    report = check_gea_axioms(broken)
    planted = tuple(map(broken.elements.index, "abd"))
    ok = not report.passed and planted in axiom_witnesses(report, "GE3")

    no_complement = corpus.load("ea_no_complement")
    ea_report = check_ea_axioms(no_complement, check_gea_axioms(no_complement))
    ok = ok and not ea_report.passed
    ok = ok and (no_complement.elements.index("a"),) in axiom_witnesses(ea_report, "E3")

    for table in valid_corpus.values():
        ok = ok and check_gea_axioms(table).passed
    for name in corpus.EFFECT_ALGEBRAS:
        table = valid_corpus[name]
        ok = ok and check_ea_axioms(table, check_gea_axioms(table)).passed

    for name in corpus.MORPHISMS:
        flags = classify_morphism(corpus.load_morphism(name))
        ok = ok and (not flags.embedding or flags.order_reflecting)
        ok = ok and (not flags.order_reflecting or flags.injective)
    elapsed = time.monotonic() - start
    _verdict(8, "axiom checker soundness and morphism chain", ok, elapsed)
    assert ok
