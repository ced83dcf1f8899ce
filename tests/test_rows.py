"""The table held once, as rows and each row's defined columns, and the one
packed additivity pass over them.

The loader and the constructor, given the same triples, fill the same rows
and cols; the packed pass of algebra.first_nonadditive gives the verdict,
the first violation and the message of the per-sum walks in
tests/reference.py on damaged states and diagonals."""

import copy
import json
import pickle
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from gea import cli, corpus, effects
from gea.algebra import AlgebraTable, check_gea_axioms, first_nonadditive, require_gea
from gea.errors import InputError
from gea.fileio import load_algebra
from gea.generate import random_gea
from gea.represent import DiagonalRep, build_representation, verify_morphism
from gea.states import (GeneralizedState, assign_witnesses, order_determining_set,
                        separating_set)
from reference import (reference_assign_witnesses, reference_eigenvalues,
                       reference_first_nonadditive, reference_kahn, reference_validate,
                       triples, write_table)
from test_algebra import holds_calls

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_families():
    """perfbench/families.py and every table family of the benchmark's
    workloads, by name, as perfbench/workloads.py lists them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.F, {**workloads.WITNESS_LP, **workloads.OBSTRUCTED,
                         **workloads.WIDE_REPRESENT, **workloads.WIDE_SCAN}


def reference_rows(n, sums):
    """Padded rows and the ascending defined columns of a {(i, j): k} dict."""
    rows = [[-1] * (n + 1) for _ in range(n + 1)]
    for (i, j), k in sums.items():
        rows[i][j] = k
    return rows, [sorted(j for j in range(n) if rows[i][j] >= 0) for i in range(n)]


def disguised_files(tmp_path):
    """Every benchmark family, disguised four ways, as (file, JSON) pairs;
    the triples are shuffled, so no row arrives in column order."""
    families, builds = benchmark_families()
    for name, build in builds.items():
        data = build()
        for seed in range(4):
            shown, _ = families.disguise(data, random.Random(seed))
            random.Random(seed).shuffle(shown["sums"])
            path = tmp_path / f"{name}-{seed}.json"
            path.write_text(json.dumps(shown), encoding="utf-8")
            yield path, shown


class TestOneFill:
    def assert_one_table(self, table, n, sums):
        assert (table.rows, table.cols) == reference_rows(n, sums)
        twin = AlgebraTable(table.elements, table.zero, triples(sums), table.unit)
        assert (twin.rows, twin.cols) == (table.rows, table.cols)
        assert table.sums == sums and list(table.sums) == sorted(sums)
        assert list(table.triples()) == [(i, j, k) for (i, j), k in sorted(sums.items())]

    def test_corpus(self):
        for name in corpus.VALID + corpus.BROKEN:
            data = json.loads(corpus.path(name).read_text(encoding="utf-8"))
            index = {label: i for i, label in enumerate(data["elements"])}
            sums = {(index[x], index[y]): index[z] for x, y, z in data["sums"]}
            self.assert_one_table(corpus.load(name), len(index), sums)

    def test_random_tables(self, tmp_path):
        for n in range(1, 25):
            table = random_gea(random.Random(n), n)
            path = tmp_path / f"random{n}.json"
            write_table(table, path)
            loaded = load_algebra(path)[0]
            assert loaded == table
            self.assert_one_table(loaded, n, table.sums)

    def test_disguised_benchmark_families(self, tmp_path):
        for path, shown in disguised_files(tmp_path):
            index = {label: i for i, label in enumerate(shown["elements"])}
            sums = {(index[x], index[y]): index[z] for x, y, z in shown["sums"]}
            self.assert_one_table(load_algebra(path)[0], len(index), sums)

    def test_copy_and_pickle_rebuild_the_rows(self, cube8):
        for twin in (copy.deepcopy(cube8), pickle.loads(pickle.dumps(cube8))):
            assert (twin.rows, twin.cols, twin.sums) == (cube8.rows, cube8.cols, cube8.sums)

    def test_sums_is_made_on_each_read(self, diamond):
        view = diamond.sums
        view.clear()
        assert diamond.sums and diamond.sums is not diamond.sums


def write(tmp_path, sums, **extra):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"elements": ["0", "a", "b"], "zero": "0", "sums": sums, **extra}))
    return path


ZERO_SUMS = [["0", "0", "0"], ["0", "a", "a"], ["a", "0", "a"], ["0", "b", "b"], ["b", "0", "b"]]


class TestLoaderMessages:
    def test_repeated_identical_triple_is_accepted_once(self, tmp_path):
        table = load_algebra(write(tmp_path, ZERO_SUMS + [["a", "a", "b"]] * 3))[0]
        assert table.cols[1] == [0, 1] and table.rows[1][1] == 2
        twin = AlgebraTable(("0", "a"), 0, [(0, 0, 0), (0, 1, 1), (0, 1, 1), (1, 0, 1)])
        assert twin.cols == [[0, 1], [0]]

    @pytest.mark.parametrize("sums, message", [
        (ZERO_SUMS + [["a", "a", "b"], ["a", "a", "a"]], "conflicting entries for a+a"),
        (ZERO_SUMS + [["a", "a", "b"], ["a", "a", "b"], ["a", "q", "b"]],
         "unknown element label 'q'"),
        ([["a", "b", "a"], ["a", "b", "b"], ["a", "q", "b"]], "conflicting entries for a+b"),
        ([["a", "b", "a"], ["a", "q", "b"], ["a", "b", "b"]], "unknown element label 'q'"),
        ([["a", "b", "a"], "aba", ["a", "b", "b"]], "sum entries must be [x, y, z] triples"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, sums, message):
        path = write(tmp_path, sums)
        with pytest.raises(InputError) as caught:
            load_algebra(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_labels_of_unit_and_zero_come_before_the_triples(self, tmp_path):
        path = write(tmp_path, [["a", "b", "a"], ["a", "b", "b"]], unit="q")
        with pytest.raises(InputError, match=r": unknown element label 'q'$"):
            load_algebra(path)

    @pytest.mark.parametrize("sums, message", [
        ([(0, 1, 1), (0, 1, 0)], r"conflicting entries for 0\+a"),
        ([(0, 1, 1), (1, 2, 0)], r"sum entry \(1,2\)->0 out of range"),
        ([(0, 0, 0), (-1, 0, 0)], r"sum entry \(-1,0\)->0 out of range"),
    ])
    def test_constructor_messages(self, sums, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            AlgebraTable(("0", "a"), 0, sums)


def witness_sets():
    """Tables with the states of both searches, for damage."""
    tables = [corpus.load(name) for name in ("diamond", "chain_c3", "cube8", "excd", "excd_ext")]
    tables += [random_gea(random.Random(n), n) for n in (6, 9, 12)]
    for table in tables:
        gea = require_gea(table)
        for search in (order_determining_set, separating_set):
            states = search(gea).states
            if states:
                yield table, gea, states


def damaged(states, rng, scale=1):
    """The states scaled by scale, with one entry of one state raised by 1,
    2 or 7; the slot and the element as drawn."""
    nums = [[p * scale for p in s.nums] for s in states]
    slot, a = rng.randrange(len(nums)), rng.randrange(len(nums[0]))
    nums[slot][a] += rng.choice((1, 2, 7))
    return nums


def message(call):
    try:
        call()
    except InputError as exc:
        return str(exc)
    return None


class TestPackedPass:
    @pytest.mark.parametrize("scale", [1, 2 ** 64 + 3, 3 ** 50], ids=["1", "2^64+3", "3^50"])
    def test_damaged_states_and_diagonals_match_the_walk(self, scale):
        rng = random.Random(5)
        failures = 0
        for table, gea, states in witness_sets():
            for _ in range(6):
                nums = damaged(states, rng, scale)
                expected = reference_first_nonadditive(table, nums)
                assert first_nonadditive(table, nums) == expected
                for row in nums:
                    state = GeneralizedState(tuple(row))
                    assert message(lambda: state.validate(table)) == \
                        message(lambda: reference_validate(state, table))
                rep = DiagonalRep(tuple(zip(*nums)))
                if any(rep.diagonals[table.zero]):
                    expected = (table.zero,) * 3
                assert verify_morphism(rep, table) == (expected is None, expected)
                failures += expected is not None
        assert failures > 50

    def test_nonzero_phi_of_zero_comes_first(self, chain_c3):
        rep = build_representation(require_gea(chain_c3), order_determining_set(
            require_gea(chain_c3)).states)
        diagonals = [list(d) for d in rep.diagonals]
        diagonals[chain_c3.zero][0] = 1
        diagonals[1][0] += 5
        assert verify_morphism(DiagonalRep(tuple(map(tuple, diagonals))), chain_c3) == \
            (False, (0, 0, 0))

    def test_lane_defect_at_the_top_of_the_lane(self, chain_c3):
        # h + h = 1.  With M = 3 the lanes are w = 4 bits wide: lane 0's
        # defect 3 + 3 - (-2) = 8 = 2^(w-1), and lane 1's is -1, so one bit
        # less would carry the first into the second and cancel both.
        h, top = chain_c3.elements.index("h"), chain_c3.elements.index("1")
        vectors = [(0, 0)] * 3
        vectors[h], vectors[top] = (3, 0), (-2, 1)
        lanes = list(zip(*vectors))
        assert first_nonadditive(chain_c3, lanes) == (h, h, top)
        assert verify_morphism(DiagonalRep(tuple(vectors)), chain_c3) == (False, (h, h, top))
        # The same with every value past 2^64, and nonnegative lanes near it.
        big = [tuple(2 ** 66 * v for v in lane) for lane in lanes]
        assert first_nonadditive(chain_c3, big) == (h, h, top)
        edge = [0] * 3
        edge[h], edge[top] = 2 ** 64 - 1, 2 ** 65 - 2
        assert first_nonadditive(chain_c3, [edge, edge[::-1]]) == \
            reference_first_nonadditive(chain_c3, [edge, edge[::-1]])
        assert first_nonadditive(chain_c3, [edge, edge]) is None
        edge[top] += 1
        assert first_nonadditive(chain_c3, [edge, edge]) == \
            reference_first_nonadditive(chain_c3, [edge, edge]) == (h, h, top)

    def test_negative_entries_get_the_walks_verdict(self):
        rng = random.Random(11)
        for table, gea, states in witness_sets():
            for _ in range(4):
                nums = [[p - rng.randrange(3) * q for p, q in zip(s.nums, states[0].nums)]
                        for s in states]
                expected = reference_first_nonadditive(table, nums)
                assert first_nonadditive(table, nums) == expected
                vectors = tuple(zip(*nums))
                if not any(vectors[table.zero]):
                    assert verify_morphism(DiagonalRep(vectors), table) == \
                        (expected is None, expected)
                state = GeneralizedState(tuple(nums[-1]))
                assert message(lambda: state.validate(table)) == \
                    message(lambda: reference_validate(state, table))

    def test_no_lanes_and_no_slots_pass(self, diamond):
        assert first_nonadditive(diamond, []) is None
        assert verify_morphism(DiagonalRep(((),) * diamond.n), diamond) == (True, None)


class TestSearchPass:
    """A find that returns damaged states: the search reports the error of
    the per-state walk, the first bad state in slot order with its first
    sum, or a shape error if that state comes first."""

    @pytest.mark.parametrize("bad", [
        {0: "raise"}, {1: "raise"}, {0: "raise", 1: "raise"}, {0: "raise", 1: "negative"},
        {0: "zero"}, {1: "short"}, {0: "short", 1: "raise"}, {2: "raise"}])
    def test_first_bad_state_in_slot_order(self, cube8, bad):
        gea = require_gea(cube8)
        good = order_determining_set(gea).states
        served = []

        def find(a, b):
            state = good[len(served) % len(good)]
            nums = list(state.nums)
            kind = bad.get(len(served))
            if kind == "raise":
                nums[-1] += 1
            elif kind == "negative":
                nums[1] = -1
            elif kind == "zero":
                nums[cube8.zero] = 1
            elif kind == "short":
                nums.pop()
            served.append(state)
            return GeneralizedState(tuple(nums), state.den)

        def search(assign):
            served.clear()
            return message(lambda: assign(cube8, "order", gea.not_above(), find))

        want = search(lambda t, goal, masks, f: reference_assign_witnesses(
            t, goal, [(a, b) for a, mask in enumerate(masks) for b in range(t.n) if mask >> b & 1],
            f))
        assert want is not None
        assert search(assign_witnesses) == want


class TestAtomTables:
    @pytest.mark.parametrize("atoms", [1, 2, 5, 16, 24])
    def test_every_nonzero_element_an_atom_skips_kahn(self, atoms, monkeypatch):
        families, _ = benchmark_families()
        shown, _ = families.disguise(families.antichain(atoms), random.Random(atoms))
        index = {label: i for i, label in enumerate(shown["elements"])}
        table = AlgebraTable(tuple(shown["elements"]), index[shown["zero"]],
                             [(index[x], index[y], index[z]) for x, y, z in shown["sums"]])
        calls = holds_calls(monkeypatch)
        report, *kahn = check_gea_axioms(table, kahn=True)
        assert report.passed and calls == [(False, False, True)]
        assert tuple(kahn) == reference_kahn(table)
        assert len(kahn[0]) == atoms


class TestHermitianDefect:
    def test_check_reports_the_defect_of_its_one_check(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 5, 16):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (a + a.conj().T) / 2 + 1e-11 * rng.standard_normal((dim, dim))
            w = reference_eigenvalues(a)
            # a, a shifted positive, and that scaled below the identity.
            positive = a + (0.1 - w[0]) * np.eye(dim)
            for k, mat in enumerate((a, positive, positive / (w[-1] - w[0] + 0.2))):
                matrix = effects.EffectMatrix(mat)
                defect = float(np.abs(matrix.mat - matrix.mat.conj().T).max())
                eig = reference_eigenvalues(mat)
                positive_flag = bool(eig[0] >= -effects.PSD_TOL)
                effect_flag = positive_flag and bool(eig[-1] <= 1.0 + effects.PSD_TOL)
                assert effects.spectral_flags(matrix) == (positive_flag, effect_flag, defect)
                path = tmp_path / f"m{dim}-{k}.json"
                path.write_text(json.dumps({"dim": dim, "re": mat.real.tolist(),
                                            "im": mat.imag.tolist()}))
                cli.main(["effects", "check", str(path), "--json"])
                report = json.loads(capsys.readouterr().out)
                assert report["matrix"] == {"dim": dim, "hermitian_defect": defect,
                                            "positive": positive_flag, "effect": effect_flag}
