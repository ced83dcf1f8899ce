import hashlib
import json
import random
from pathlib import Path

import pytest

from gea import generate
from gea.algebra import AlgebraTable, check_gea_axioms, induced_order, scan_gea
from gea.errors import InputError
from gea.generate import random_gea, random_population
from gea.states import order_determining_set, separating_set
from reference import (assert_witness_set, checked_proofs, pairs_not_leq,
                       reference_additivity_program, reference_pair_row, reference_validate,
                       triples)
from test_lp import ReferenceEchelon, reference_lp_feasible

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def reference_random_gea(rng, n):
    """The generator with the full axiom scan of every trial table."""
    labels = tuple("0" if i == 0 else f"e{i}" for i in range(n))
    sums = {(0, 0): 0}
    for x in range(1, n):
        sums[(0, x)] = x
        sums[(x, 0)] = x
    if n == 1:
        return AlgebraTable(labels, 0, triples(sums))
    for _ in range(3 * n * n):
        x = rng.randrange(1, n)
        y = rng.randrange(1, n)
        z = rng.randrange(1, n)
        if (x, y) in sums:
            continue
        trial = dict(sums)
        trial[(x, y)] = z
        trial[(y, x)] = z
        if check_gea_axioms(AlgebraTable(labels, 0, triples(trial))).passed:
            sums = trial
    return AlgebraTable(labels, 0, triples(sums))


def defined(s, n):
    return {(a, b): c for a in range(n) for b, c in enumerate(s[a][:n]) if c != -1}


def by_value(s, n):
    return [sorted(pair for pair, c in defined(s, n).items() if c == v) for v in range(n)]


class TestLocalCheck:
    def check_trial(self, s, to, n, x, y, z):
        """_insert against the full scan of the trial table; the dense table
        and its pairs by value stay in step either way."""
        labels = tuple(f"e{i}" for i in range(n))
        before = defined(s, n)
        trial = {**before, (x, y): z, (y, x): z}
        expected = check_gea_axioms(AlgebraTable(labels, 0, triples(trial))).passed
        assert generate._insert(s, to, x, y, z) == expected, (before, x, y, z)
        assert defined(s, n) == (trial if expected else before)
        assert [sorted(pairs) for pairs in to] == by_value(s, n)
        assert all(row[n] == -1 for row in s) and s[n] == [-1] * (n + 1)
        return expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_accepts_exactly_when_the_full_scan_passes(self, n):
        # Every trial the generator makes, on three seeded tables.
        outcomes = set()
        for seed in range(3):
            rng = random.Random(1000 * n + seed)
            s, to = generate._zero_sums(n)
            for _ in range(3 * n * n):
                x, y, z = (rng.randrange(1, n) for _ in range(3))
                if s[x][y] == -1:
                    outcomes.add(self.check_trial(s, to, n, x, y, z))
        assert outcomes == {True, False} or n == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_trial_on_grown_tables(self, n):
        # Each table the generator grows, every undefined (x, y) and every z,
        # each tried on a copy.
        for seed in range(2):
            rng = random.Random(seed)
            s, to = generate._zero_sums(n)
            for _ in range(3 * n * n):
                x, y, z = (rng.randrange(1, n) for _ in range(3))
                if s[x][y] != -1:
                    continue
                for a in range(1, n):
                    for b in range(1, n):
                        if s[a][b] != -1:
                            continue
                        for c in range(1, n):
                            self.check_trial([row[:] for row in s],
                                             [pairs[:] for pairs in to], n, a, b, c)
                generate._insert(s, to, x, y, z)


class TestGeneratedTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_matches_the_full_scan_reference(self, n):
        for seed in range(6):
            assert random_gea(random.Random(seed), n) == \
                reference_random_gea(random.Random(seed), n), (n, seed)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_element(self, n):
        with pytest.raises(InputError, match="at least one element"):
            random_gea(random.Random(0), n)

    def test_population_stream_matches_the_reference(self):
        rng = random.Random(3)
        sizes = [1] + [k for k in range(2, 9) for _ in range(4)]
        expected = [reference_random_gea(rng, rng.choice(sizes)) for _ in range(20)]
        assert list(random_population(3, 20, 8)) == expected

    def test_reproduces_the_recorded_population_digests(self):
        # The benchmark's record of random_population(seed, 8, 6) for each
        # seed, made at the commit that defined its baseline.
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))["population"]
        assert len(recorded) == 128
        for seed, entry in enumerate(recorded):
            tables = list(random_population(seed, 8, 6))
            data = [[list(t.elements), t.zero, t.unit,
                     sorted([i, j, k] for (i, j), k in t.sums.items())] for t in tables]
            digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
            assert digest == entry["digest"], seed


def brute_force_leq(table):
    return [[any(table.sums.get((a, c)) == b for c in range(table.n)) for b in range(table.n)]
            for a in range(table.n)]


class TestLargeTables:
    """Property tests on generated tables past the population's n <= 6."""

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_scan_and_induced_order(self, n):
        for seed in range(4):
            table = random_gea(random.Random(seed), n)
            report, gea = scan_gea(table)
            assert report.passed and gea is not None
            assert gea.above == induced_order(table)
            leq = brute_force_leq(table)
            assert [[bool(gea.above[a] >> b & 1) for b in range(n)] for a in range(n)] == leq
            # a partial order, as for every generalized effect algebra
            for a in range(n):
                assert leq[a][a]
                for b in range(n):
                    if a != b and leq[a][b]:
                        assert not leq[b][a]
                        assert all(leq[a][c] for c in range(n) if leq[b][c])
            assert pairs_not_leq(gea.above) == [(a, b) for a in range(n) for b in range(n)
                                               if a != b and not leq[a][b]]
            assert gea.not_above() == [sum(1 << b for b in range(n) if not leq[a][b])
                                       for a in range(n)]

    @pytest.mark.parametrize("n, seed", [(12, 0), (12, 1), (14, 0), (16, 0), (16, 1)])
    def test_witness_searches(self, n, seed, monkeypatch):
        table = random_gea(random.Random(seed), n)
        _, gea = scan_gea(table)
        # Every None of the searches' LPs is rechecked from its proof, and
        # the failures against the Fraction solver on the reference program,
        # one variable per nonzero element.
        _, proofs = checked_proofs(monkeypatch)
        cone = reference_additivity_program(table)
        factored = ReferenceEchelon.of(cone.rows, cone.n_vars)

        def reference_feasible(lo, hi):
            program = cone.extended([reference_pair_row(table, lo, hi)])
            return reference_lp_feasible(program, factored) is not None

        order = order_determining_set(gea)
        separate = separating_set(gea)
        for witnesses in (order, separate):
            for state in witnesses.states:
                reference_validate(state, table)
            assert_witness_set(gea, witnesses)
        assert order.failures and separate.failures and sum(proofs.values()) >= 1
        for a, b in order.failures:
            assert not reference_feasible(a, b)
        for a, b in separate.failures:
            assert not reference_feasible(a, b) and not reference_feasible(b, a)
