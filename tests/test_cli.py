import builtins
import contextlib
import copy
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gea
from gea import algebra, corpus, fileio, states
from gea import cli
from gea.cli import main
from gea.effects import EffectMatrix
from reference import down_set_table, reference_parser, write_matrix, write_table
from test_readme import COMMANDS as README_COMMANDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def cpath(name):
    return str(corpus.path(name))


class TestCheck:
    def test_valid_table_exits_zero(self, capsys):
        code, report = run_json(capsys, "check", cpath("excd"))
        assert code == 0
        assert report["gea"]["passed"]
        assert report["exit"] == 0

    def test_broken_table_exits_one_with_witness(self, capsys):
        code, report = run_json(capsys, "check", cpath("broken_ge3"))
        assert code == 1
        axioms = [v["axiom"] for v in report["gea"]["violations"]]
        assert "GE3" in axioms

    def test_missing_file_exits_two(self, capsys):
        code, report = run_json(capsys, "check", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("path", ["./no-such.json", "", ".//no/../such.json"])
    def test_unreadable_file_is_named_as_given(self, capsys, path):
        code, report = run_json(capsys, "check", path)
        assert code == 2
        assert report["error"] == (f"cannot read {path}: "
                                   f"[Errno 2] No such file or directory: {path!r}")
        assert "error" in report

    def test_unit_equal_to_zero_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"elements": ["0", "a"], "zero": "0", "unit": "0",
                                    "sums": []}), encoding="utf-8")
        code, report = run_json(capsys, "check", str(path))
        assert code == 2
        assert report["error"] == f"{path}: unit must differ from zero"

    def test_empty_element_list_is_reported_before_the_zero_label(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"elements": [], "zero": "0", "sums": []}), encoding="utf-8")
        code, report = run_json(capsys, "check", str(path))
        assert code == report["exit"] == 2
        assert report["error"] == f"{path}: algebra needs at least one element"

    def test_ea_flag(self, capsys):
        code, report = run_json(capsys, "check", cpath("diamond"), "--ea")
        assert code == 0 and report["ea"]["passed"]
        code, report = run_json(capsys, "check", cpath("ea_no_complement"), "--ea")
        assert code == 1
        assert any(v["axiom"] == "E3" for v in report["ea"]["violations"])

    def test_ea_flag_without_unit_is_input_error(self, capsys):
        code, _ = run_json(capsys, "check", cpath("excd"), "--ea")
        assert code == 2

    def test_label_with_comma_exits_two(self, capsys, tmp_path):
        path = tmp_path / "comma.json"
        path.write_text(json.dumps({"elements": ["0", "a,b"], "zero": "0",
                                    "sums": [["0", "a,b", "a,b"]]}))
        for command in ("check", "order", "states", "represent"):
            code, report = run_json(capsys, command, str(path))
            assert code == 2 and "','" in report["error"], command


class TestOrder:
    def test_diamond_order(self, capsys):
        code, report = run_json(capsys, "order", cpath("diamond"))
        assert code == 0
        below = {tuple(pair) for pair in report["order"]["strictly_below"]}
        assert ("a", "1") in below and ("a", "b") not in below
        assert report["order"]["differences"]["1,a"] == "b"


class TestStates:
    def test_order_goal_success(self, capsys):
        code, report = run_json(capsys, "states", cpath("excd"), "--goal", "order")
        assert code == 0
        assert report["witnesses"]["states"] == [["0", "1", "0"], ["0", "0", "1"]]

    def test_no_witness_set_exits_three(self, capsys):
        code, report = run_json(capsys, "states", cpath("no_states"),
                                "--goal", "separate")
        assert code == 3
        assert ["a", "b"] in report["witnesses"]["failures"]


class TestRepresent:
    def test_excd_order_pipeline(self, capsys):
        code, report = run_json(capsys, "represent", cpath("excd"), "--goal", "order")
        assert code == 0
        rep = report["representation"]
        assert rep["witnesses"] == 2
        assert rep["operators"]["pi1"] == ["1", "0"]
        verification = rep["verification"]
        assert verification["morphism"] and verification["injective"]
        assert verification["order_reflecting"] and verification["sampled_ok"]

    def test_diamond_order_pipeline(self, capsys):
        code, report = run_json(capsys, "represent", cpath("diamond"), "--goal", "order")
        assert code == 0

    def test_obstructed_goal_exits_three(self, capsys):
        code, report = run_json(capsys, "represent", cpath("no_states"),
                                "--goal", "order")
        assert code == 3
        assert "representation" not in report
        assert "obstructing" in report["verdict"]

    @pytest.mark.parametrize("goal", ["order", "separate"])
    def test_reported_bounds_are_the_largest_operator_entries(self, capsys, goal):
        # Every entry is nonnegative, so the bound of phi(a) is its largest.
        built = 0
        for name in corpus.VALID:
            code, report = run_json(capsys, "represent", cpath(name), "--goal", goal)
            if code == 3:
                continue
            assert code == 0, name
            built += 1
            rep = report["representation"]
            bounds = rep["verification"]["bounds"]
            assert rep["verification"]["sampled_ok"] is True
            assert bounds.keys() == rep["operators"].keys()
            for label, entries in rep["operators"].items():
                entries = [Fraction(e) for e in entries]
                assert min(entries, default=0) >= 0, (name, label)
                assert Fraction(bounds[label]) == max(entries, default=0), (name, label)
        assert built == len(corpus.VALID) - 1

    def test_out_writes_identical_payload(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, report = run_json(capsys, "represent", cpath("chain_c3"),
                                "--goal", "order", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text()) == report

    def test_report_keeps_one_provenance_pair_per_state(self, capsys, tmp_path):
        # The cube on 7 atoms (n = 128) with its nonzero elements shuffled:
        # about 14 000 ordered pairs need a witness, but 7 states cover them
        # all, and provenance records only the pair that made each state.
        points = list(itertools.product(range(2), repeat=7))
        points[1:] = random.Random(1).sample(points[1:], len(points) - 1)
        path = tmp_path / "cube7.json"
        write_table(down_set_table(points), path)
        code, out = run(capsys, "represent", str(path), "--goal", "order", "--json")
        assert code == 0
        assert len(out.encode()) < 50_000
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses["provenance"]) == len(witnesses["states"]) == 7

    def test_reports_are_deterministic(self, capsys):
        _, first = run(capsys, "represent", cpath("cube8"), "--goal", "order", "--json")
        _, second = run(capsys, "represent", cpath("cube8"), "--goal", "order", "--json")
        assert first == second

    def test_seed_env_override(self, capsys):
        _, explicit = run_json(capsys, "represent", cpath("excd"),
                               "--goal", "order", "--seed", "9")
        assert explicit["representation"]["verification"]["seed"] == 9

    def test_seed_environment_variable_is_not_read(self, capsys, monkeypatch):
        # Only --seed sets the seed; no command parses the environment.
        monkeypatch.setenv("GEA_SEED", "abc")
        for command in ("check", "order"):
            assert run_json(capsys, command, cpath("excd"))[0] == 0
        code, report = run_json(capsys, "represent", cpath("excd"), "--goal", "order")
        assert code == 0
        assert report["representation"]["verification"]["seed"] == 0


class TestMorphism:
    def test_identity_all_flags(self, capsys):
        code, report = run_json(capsys, "morphism", cpath("id_d4"))
        assert code == 0
        assert report["morphism"] == {"is_morphism": True, "injective": True,
                                      "order_reflecting": True, "embedding": True}

    def test_inclusion_not_embedding(self, capsys):
        code, report = run_json(capsys, "morphism", cpath("incl_excd"))
        assert code == 0
        assert not report["morphism"]["embedding"]

    @pytest.mark.parametrize("change", [
        {"source": 5},
        {"source": ["diamond.json"]},
        {"target": 5},
        {"map": [["0"]]},
        {"map": ["0", "a", "b", "1"]},
        {"map": 7},
        {"map": None},
    ])
    def test_malformed_morphism_exits_two(self, capsys, tmp_path, change):
        spec = json.loads(corpus.path("id_d4").read_text(encoding="utf-8"))
        spec.update({"source": cpath("diamond"), "target": cpath("diamond"), **change})
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["morphism", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert "error" in json.loads(captured.out)
        assert captured.err == ""

    def test_unknown_image_label_names_the_file(self, capsys, tmp_path):
        spec = {"source": cpath("diamond"), "target": cpath("diamond"),
                "map": {"0": "0", "a": "q", "b": "b", "1": "1"}}
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, report = run_json(capsys, "morphism", str(path))
        assert code == 2
        assert report["error"] == f"{path}: unknown element label 'q'"

    @pytest.mark.parametrize("side, source", [
        ("source", "broken_ge3"), ("target", "diamond"), ("both", "broken_ge3")])
    def test_table_failing_the_scan_names_its_side_and_file(self, capsys, tmp_path, side, source):
        # With both sides on one file, that file is scanned once, as the source.
        sides = ("source", "target") if side == "both" else (side,)
        spec = {"source": cpath("diamond"), "target": cpath("diamond"),
                **dict.fromkeys(sides, cpath("broken_ge3")),
                "map": {lab: "0" for lab in corpus.load(source).elements}}
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, report = run_json(capsys, "morphism", str(path))
        assert code == 1
        assert report["error"] == (f"{path}: {sides[0]} {cpath('broken_ge3')}: table is not a "
                                   "generalized effect algebra: GE3 fails (a+b = a+d = c)")


class TestEffects:
    def test_demo_excd(self, capsys):
        code, report = run_json(capsys, "effects", "demo-excd")
        assert code == 0
        assert report["demo"]["embedding"] is False

    def test_demo_excd_exits_one_when_its_representation_fails(self, capsys, monkeypatch):
        demo = gea.effects.demo_excd()
        monkeypatch.setattr(gea.effects, "verify_injective", lambda rep: (False, (0, 1)))
        code, report = run_json(capsys, "effects", "demo-excd")
        assert code == 1
        assert report["demo"]["representation"]["injective"] is False
        # Each flag the exit code reads fails the demo on its own.
        for flag in ("is_morphism", "order_reflecting", "embedding", "representation.morphism",
                     "representation.injective", "representation.order_reflecting"):
            flipped = copy.deepcopy(demo)
            *outer, name = flag.split(".")
            flags = flipped[outer[0]] if outer else flipped
            flags[name] = not flags[name]
            monkeypatch.setattr(gea.effects, "demo_excd", lambda: flipped)
            code, report = run_json(capsys, "effects", "demo-excd")
            assert code == 1 and report["exit"] == 1, flag

    def test_witness_inner_products(self, capsys):
        code, report = run_json(capsys, "effects", "witness",
                                cpath("mat_a"), cpath("mat_b"))
        assert code == 0
        assert abs(report["inner_products"]["a"] - 2.0) < 1e-9
        assert abs(report["inner_products"]["b"] - 1.0) < 1e-9
        assert report["witness"] == {"re": [1.0, 0.0], "im": [0.0, 0.0]}

    def test_witness_that_fails_its_self_check_exits_one(self, capsys, tmp_path):
        # At 1e16 the float spacing is 2, so the reported inner products of
        # the true witness (1, -1)/sqrt(2) round to the same value.
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(EffectMatrix(np.array([[1e16, 0.0], [0.0, 1e16]])), path_a)
        write_matrix(EffectMatrix(np.array([[1e16, 1.0], [1.0, 1e16]])), path_b)
        code, report = run_json(capsys, "effects", "witness", str(path_a), str(path_b))
        assert code == 1 and report["exit"] == 1
        assert not report["inner_products"]["a"] - report["inner_products"]["b"] > 0
        assert report["verdict"].startswith("verification failed")

    def test_overflowing_matrices_exit_two(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}')
        code, report = run_json(capsys, "effects", "check", str(huge))
        assert code == 2 and "overflows" in report["error"]
        pos, neg = tmp_path / "pos.json", tmp_path / "neg.json"
        pos.write_text('{"dim": 1, "re": [[1e308]]}')
        neg.write_text('{"dim": 1, "re": [[-1e308]]}')
        for first, second in ((neg, pos), (pos, neg)):
            code, report = run_json(capsys, "effects", "witness", str(first), str(second))
            assert code == 2 and "finite" in report["error"]

    def test_overflow_prints_nothing_on_stderr(self, capfd, tmp_path):
        big, neg, skew = (tmp_path / f"{name}.json" for name in ("big", "neg", "skew"))
        big.write_text('{"dim": 2, "re": [[1e308, 0], [0, 1e308]]}')
        neg.write_text('{"dim": 2, "re": [[-1e308, 0], [0, -1e308]]}')
        skew.write_text('{"dim": 2, "re": [[0, 1e308], [-1e308, 0]]}')
        for argv in (("witness", big, neg), ("witness", neg, big), ("check", skew)):
            code = main(["effects", *map(str, argv), "--json"])
            out, err = capfd.readouterr()
            assert code == 2 and "error" in json.loads(out), argv
            assert err == "", argv

    def test_witness_of_non_hermitian_matrices_exits_two(self, capfd, tmp_path):
        # B - A is the identity, so only a check of A and B themselves
        # refuses them, with the message `effects check` gives.
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        path_a.write_text('{"dim": 2, "re": [[0, 1], [0, 0]]}')
        path_b.write_text('{"dim": 2, "re": [[1, 1], [0, 1]]}')
        code = main(["effects", "witness", str(path_a), str(path_b), "--json"])
        out, err = capfd.readouterr()
        report = json.loads(out)
        assert code == 2
        assert report["error"] == f"matrix A ({path_a}) is not Hermitian (defect 1.000e+00)"
        assert "a_below_b" not in report
        assert err == ""
        # A Hermitian A leaves B to blame; `effects check` names its file.
        code = main(["effects", "witness", cpath("mat_a"), str(path_b), "--json"])
        out, _ = capfd.readouterr()
        assert code == 2
        assert json.loads(out)["error"] == f"matrix B ({path_b}) is not Hermitian (defect 1.000e+00)"
        code = main(["effects", "check", str(path_b), "--json"])
        out, _ = capfd.readouterr()
        assert code == 2
        assert json.loads(out)["error"] == f"{path_b}: matrix is not Hermitian (defect 1.000e+00)"

    def test_witness_of_matrices_that_each_pass_check(self, capsys, tmp_path):
        # Each defect is 8e-10, within the tolerance.  B - A's is their sum,
        # 1.6e-9, past it, so B - A must not be checked again.
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        path_a.write_text('{"dim": 2, "re": [[0.5, 8e-10], [0, 0.5]]}')
        path_b.write_text('{"dim": 2, "re": [[0.2, -8e-10], [0, 0.2]]}')
        for path in (path_a, path_b):
            code, report = run_json(capsys, "effects", "check", str(path))
            assert code == 0 and report["matrix"]["hermitian_defect"] == 8e-10
        code, report = run_json(capsys, "effects", "witness", str(path_a), str(path_b))
        assert code == 0 and report["a_below_b"] is False
        assert report["inner_products"]["a"] - report["inner_products"]["b"] > 0

    def test_witness_dimension_mismatch_names_both_files(self, capsys, tmp_path):
        one, two = tmp_path / "one_by_one.json", tmp_path / "two_by_two.json"
        write_matrix(EffectMatrix(np.eye(1)), one)
        write_matrix(EffectMatrix(np.eye(2)), two)
        code, report = run_json(capsys, "effects", "witness", str(one), str(two))
        assert code == 2
        assert report["error"] == f"dimension mismatch: A ({one}) is 1 x 1, B ({two}) is 2 x 2"
        assert "a_below_b" not in report

    def test_witness_none_when_below(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        write_matrix(EffectMatrix(np.zeros((2, 2))), zero)
        code, report = run_json(capsys, "effects", "witness", str(zero), cpath("mat_a"))
        assert code == 0
        assert report["witness"] is None and report["a_below_b"]

    def test_check_positive(self, capsys):
        code, report = run_json(capsys, "effects", "check", cpath("mat_a"))
        assert code == 0
        assert report["matrix"]["positive"] and not report["matrix"]["effect"]

    def test_check_indefinite_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "indefinite.json"
        write_matrix(EffectMatrix(np.diag([1.0, -1.0]).astype(complex)), bad)
        code, report = run_json(capsys, "effects", "check", str(bad))
        assert code == 1
        assert not report["matrix"]["positive"]

    def test_malformed_matrix_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1.0]]}')
        code, _ = run_json(capsys, "effects", "check", str(bad))
        assert code == 2

    def test_non_integer_dim_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for dim in ('"x"', "1.5", "true", "[1]", "-1", "0"):
            bad.write_text(f'{{"dim": {dim}, "re": [[1]]}}')
            code, report = run_json(capsys, "effects", "check", str(bad))
            assert code == 2 and "dim" in report["error"], dim

    def test_non_finite_or_non_numeric_entry_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for body in ('"re": [[NaN]]', '"re": [[Infinity]]',
                     '"re": [[1]], "im": [[-Infinity]]', '"re": [[null]]',
                     '"re": [["x"]]', '"re": [[{}]]', '"re": [["0.5"]]', '"re": [[true]]',
                     '"re": [[' + "9" * 400 + ']]'):
            bad.write_text(f'{{"dim": 1, {body}}}')
            code, report = run_json(capsys, "effects", "check", str(bad))
            assert code == 2 and "error" in report, body


# Files that the JSON parser itself rejects, each beyond a plain syntax error.
MALFORMED_FILES = {
    "deep": ("[" * 100_000 + "]" * 100_000).encode(),
    "latin1": '{"elements": ["0", "\u00e9"], "zero": "0", "sums": []}'.encode("latin-1"),
    "digits": ('{"elements": ["0"], "zero": "0", "sums": [], "dim": '
               + "7" * 5000 + "}").encode(),
    # Inputs are strict UTF-8: a byte-order mark, or UTF-16, is malformed.
    "bom": '\ufeff{"elements": ["0"], "zero": "0", "sums": []}'.encode("utf-8"),
    "utf16": '{"elements": ["0"], "zero": "0", "sums": []}'.encode("utf-16"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    @pytest.mark.parametrize("command", [["check"], ["effects", "check"], ["morphism"]])
    def test_parser_failures_exit_two(self, capsys, tmp_path, name, command):
        path = tmp_path / f"{name}.json"
        path.write_bytes(MALFORMED_FILES[name])
        assert main([*command, str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert str(path) in json.loads(captured.out)["error"]
        assert captured.err == ""


class TestErrorReports:
    """Error reports take the path of every other report: they carry their
    exit code and go to --out."""

    def test_error_reports_carry_exit(self, capsys, tmp_path):
        broken = corpus.load("broken_ge3").elements
        not_gea = tmp_path / "morphism.json"
        not_gea.write_text(json.dumps({"source": cpath("broken_ge3"), "target": cpath("broken_ge3"),
                                       "map": {lab: lab for lab in broken}}), encoding="utf-8")
        for argv, want in ((["check", "/no/such/file.json"], 2),
                           (["morphism", str(not_gea)], 1)):
            code, report = run_json(capsys, *argv)
            assert code == report["exit"] == want, argv
            assert set(report) == {"schema", "command", "error", "exit"}, argv

    def test_error_report_goes_to_out(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        argv = ["represent", "/no/such/file.json", "--out", str(out_file)]
        code, printed = run(capsys, *argv, "--json")
        assert code == 2 and json.loads(printed)["exit"] == 2
        assert out_file.read_text(encoding="utf-8") == printed
        out_file.unlink()
        code, text = run(capsys, *argv)
        assert code == 2 and "exit: 2" in text.splitlines()
        assert json.loads(out_file.read_text(encoding="utf-8"))["exit"] == 2


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["states", "represent"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, command):
        out_file = tmp_path / "missing" / "report.json"
        code = main([command, cpath("cube8"), "--out", str(out_file), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert str(out_file) in json.loads(captured.out)["error"]
        assert json.loads(captured.out)["exit"] == 2
        assert captured.err == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [["--out", ""], ["--out="]])
    def test_empty_out_exits_two(self, capsys, argv):
        # An empty path is a path that cannot be written, not a missing --out.
        code, report = run_json(capsys, "represent", cpath("chain_c3"), *argv)
        assert code == report["exit"] == 2
        assert report["error"].startswith("cannot write : ")

    def test_error_report_keeps_the_first_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "report.json"
        code, report = run_json(capsys, "states", "/no/such.json", "--out", str(out_file))
        assert code == report["exit"] == 2
        first, second = report["error"].split("; ")
        assert first.startswith("cannot read /no/such.json")
        assert second.startswith(f"cannot write {out_file}")


class TestParserReuse:
    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        # Flags of one call must not leak into the next (--seed, --json and
        # --goal in both positions): each call gives the same report whichever
        # call came before it.
        calls = [
            ["--seed", "5", "represent", cpath("excd"), "--goal", "separate", "--json"],
            ["represent", cpath("excd"), "--json"],
            ["check", cpath("diamond"), "--ea", "--seed", "3", "--json"],
            ["--json", "check", cpath("diamond")],
            ["states", cpath("excd")],
            ["represent", cpath("diamond"), "--json", "--seed", "7"],
        ]
        in_a_row = [run(capsys, *argv) for argv in calls]
        in_reverse = [run(capsys, *argv) for argv in reversed(calls)][::-1]
        assert in_a_row == in_reverse
        assert json.loads(in_a_row[0][1])["representation"]["verification"]["seed"] == 5
        assert json.loads(in_a_row[1][1])["representation"]["verification"]["seed"] == 0
        assert "ea" in json.loads(in_a_row[2][1]) and "ea" not in json.loads(in_a_row[3][1])
        assert not in_a_row[4][1].startswith("{")


def corpus_commands():
    tables = corpus.VALID + corpus.BROKEN
    yield from (["check", cpath(name)] for name in tables)
    yield from (["check", cpath(name), "--ea"] for name in corpus.EFFECT_ALGEBRAS)
    yield from (["order", cpath(name)] for name in tables)
    for command in ("states", "represent"):
        for goal in ("order", "separate"):
            yield from ([command, cpath(name), "--goal", goal] for name in tables)
    yield from (["morphism", cpath(name)] for name in corpus.MORPHISMS)
    yield ["effects", "demo-excd"]
    yield from (["effects", "check", cpath(name)] for name in ("mat_a", "mat_b"))
    yield ["effects", "witness", cpath("mat_a"), cpath("mat_b")]
    yield ["effects", "witness", cpath("mat_b"), cpath("mat_a")]


# The attributes parse sets.  The reference parser leaves out those that a
# command line does not set, and main then read --json as False and --seed as 0.
# It also names the command words under its subparsers' dests, command and
# effects_command, which no handler reads: parse picks the handler, func.
PARSED = dict.fromkeys(["func", "path", "path_b", "ea", "goal", "out", "json", "seed"]) | {
    "json": False, "seed": 0}


def reference_parse(argv):
    parsed = vars(reference_parser().parse_args(argv))
    return {**PARSED, **{key: value for key, value in parsed.items()
                         if key not in ("command", "effects_command")}}


# Command lines of the README, of CI and of the shapes that the benchmark's
# workloads run, each workload job with --json appended.
DOCUMENTED = [
    *(list(argv) for argv in README_COMMANDS),
    ["check", cpath("diamond"), "--ea", "--json"], ["morphism", cpath("incl_excd"), "--json"],
    ["check", "no-such.json", "--json"],
    *corpus_commands(), *([*argv, "--json"] for argv in corpus_commands()),
    *(["represent", cpath("cube8"), "--goal", goal, "--seed", "12345", "--json"]
      for goal in ("order", "separate")),
]

PATHS = st.sampled_from(["a.json", "dir/b c.json", "-", "-1", "-2.5", "", "check", "-x y"])
VALUES = {
    "--seed": st.one_of(st.integers(-10 ** 20, 10 ** 20).map(str),
                        st.sampled_from(["+5", " 7", "1_0"])),
    "--goal": st.sampled_from(["separate", "order"]),
    "--out": st.one_of(PATHS, st.just("--json x")),
}


@st.composite
def flag_tokens(draw, flag):
    """flag, spelled whole or by a unique prefix, with its value, if it takes
    one, in the next token or after '='."""
    spelled = draw(st.sampled_from([flag[:n] for n in range(3, len(flag) + 1)]))
    if flag not in VALUES:
        return [spelled]
    value = draw(VALUES[flag])
    return draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]]))


@st.composite
def valid_argvs(draw):
    """A command line argparse accepts: the shared flags before, between or
    after the command words; the command's positionals in order, its own
    flags and the shared ones in any order after the words; repeats; and
    optionally -- before the last positionals."""
    words = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, names, switches, options, _ = cli.COMMANDS[words]
    shared = st.one_of(flag_tokens("--json"), flag_tokens("--seed"))
    own = st.one_of(shared, *(flag_tokens("--" + flag) for flag in (*switches, *options)))
    argv = []
    for word in words.split():
        argv += sum(draw(st.lists(shared, max_size=2)), []) + [word]
    flags = draw(st.lists(own, max_size=4))
    paths = [draw(PATHS) for _ in names]
    after_dashes = draw(st.integers(0, len(paths)))  # paths after --, if any
    head = paths[:len(paths) - after_dashes]
    slots = iter(draw(st.permutations([None] * len(head) + flags)))
    paths_left = iter(head)
    argv += sum((slot or [next(paths_left)] for slot in slots), [])
    if after_dashes:
        argv += ["--", *paths[len(head):]]
    return argv


class TestParserParity:
    """parse reads every command line as the argparse parser it replaced."""

    @pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda argv: " ".join(
        Path(arg).name if "/" in arg else arg for arg in argv))
    def test_documented_command_lines(self, argv):
        assert vars(cli.parse(argv)) == reference_parse(argv)

    @settings(max_examples=400, deadline=None)
    @given(valid_argvs())
    @example(["--seed", "3", "effects", "--json", "witness", "--s=-4", "a", "--", "-b"])
    @example(["states", "--go", "order", "--out=-", "x", "--goal=separate", "--json", "--js"])
    @example(["check", "--json", "a", "--"])
    def test_drawn_command_lines(self, argv):
        assert vars(cli.parse(argv)) == reference_parse(argv)

    @pytest.mark.parametrize("argv", [
        [], ["--json"], ["bogus", "x"], ["effects"], ["effects", "--json"], ["effects", "bogus"],
        ["check"], ["effects", "witness", "a"], ["check", "a", "b"], ["--ea", "check", "a"],
        ["check", "a", "--goal", "order"], ["represent", "a", "--goal", "bogus"],
        ["--seed", "x", "check", "a"], ["check", "a", "--seed", "1.5"], ["states", "a", "--out"],
        ["states", "a", "--out", "--json"], ["check", "a", "--json=1"], ["--", "check", "a"],
        ["check", "a", "--", "--json"], ["check", "a", "--json", "--"],
        ["effects", "demo-excd", "--"], ["effects check", "a"], ["check", "a", "--bogus"],
        ["--help=x"], ["check", "a", "-h=x"],
    ], ids=repr)
    def test_both_reject_with_the_usage_on_stderr(self, capsys, argv):
        for parse in (cli.parse, reference_parser().parse_args):
            with pytest.raises(SystemExit) as stop:
                parse(argv)
            captured = capsys.readouterr()
            assert stop.value.code == 2 and captured.out == ""
            assert captured.err.startswith("usage: gea") and "error:" in captured.err

    @pytest.mark.parametrize("argv, got", [
        (["check", "a.json", "--bogus", "extra.json"], "['a.json', '--bogus', 'extra.json']"),
        (["effects", "demo-excd", "--out", "d.json"], "['--out', 'd.json']"),
        (["check", "a", "--bogus", "--", "b", "c"], "['a', '--bogus', '--', 'b', 'c']"),
    ], ids=repr)
    def test_surplus_tokens_are_listed_in_command_line_order(self, capsys, argv, got):
        with pytest.raises(SystemExit):
            cli.parse(argv)
        assert capsys.readouterr().err.endswith(f"; got {got}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--json", "--he"], ["check", "a", "-h"],
                                      ["effects", "--help"], ["check", "--bogus", "-h"]])
    def test_help_exits_zero_with_the_usage_on_stdout(self, capsys, argv):
        for parse in (cli.parse, reference_parser().parse_args):
            with pytest.raises(SystemExit) as stop:
                parse(argv)
            captured = capsys.readouterr()
            assert stop.value.code == 0 and captured.err == ""
            assert captured.out.startswith("usage: gea")


def opened_json_files(monkeypatch):
    """The .json files each open call names, through open or io.open."""
    opened = []
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        if str(file).endswith(".json"):
            opened.append(Path(file).resolve())
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return opened


class TestOneReadPerInput:
    @pytest.mark.parametrize("argv, tables", [
        (["check", cpath("diamond"), "--ea"], []), (["order", cpath("cube8")], []),
        (["states", cpath("excd")], []), (["represent", cpath("no_states")], []),
        (["morphism", cpath("incl_excd")], ["excd", "excd_ext"]),
        (["morphism", cpath("id_d4")], ["diamond"]),
        (["effects", "check", cpath("mat_a")], []),
        (["effects", "witness", cpath("mat_a"), cpath("mat_b")], []),
    ], ids=lambda value: " ".join(Path(v).stem for v in value))
    def test_each_input_is_opened_once_and_digested(self, capsys, monkeypatch, argv, tables):
        opened = opened_json_files(monkeypatch)
        main([*argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        inputs = [arg for arg in argv if arg.endswith(".json")]
        assert sorted(opened) == sorted(Path(p).resolve()
                                        for p in inputs + [cpath(t) for t in tables])
        digests = [report["input_digest"], report.get("input_b_digest")][:len(inputs)]
        assert digests == [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs]


# The text of a few reports, run from the corpus directory with bare file
# names, as the renderer writes them: scalars and scalar lists as json.dumps
# writes them, nested containers indented by two spaces.
TEXT_REPORTS = {
    "check diamond.json --ea": """\
schema: 1
command: "gea check diamond.json --ea"
input: "diamond.json"
input_digest: "dc4ed6c38bd80c3d7a4c6b0d0ba3be8176d6a9a084ad2aaff950a0cdf2cc3f7c"
gea:
  passed: true
  violations: []
ea:
  passed: true
  violations: []
exit: 0
""",
    "order excd.json": """\
schema: 1
command: "gea order excd.json"
input: "excd.json"
input_digest: "ba8b030d71293742f59eca6d57172c47adc907dca8af2b74ea933f489c39ac86"
gea:
  passed: true
  violations: []
order:
  strictly_below:
    -
      - "0"
      - "pi1"
    -
      - "0"
      - "pi2"
  differences:
    0,0: "0"
    pi1,0: "pi1"
    pi1,pi1: "0"
    pi2,0: "pi2"
    pi2,pi2: "0"
exit: 0
""",
    "represent excd.json": """\
schema: 1
command: "gea represent excd.json"
input: "excd.json"
input_digest: "ba8b030d71293742f59eca6d57172c47adc907dca8af2b74ea933f489c39ac86"
gea:
  passed: true
  violations: []
witnesses:
  goal: "order"
  states:
    -
      - "0"
      - "1"
      - "0"
    -
      - "0"
      - "0"
      - "1"
  provenance:
    pi1,0: 0
    pi2,0: 1
  failures: []
representation:
  witnesses: 2
  operators:
    0: ["0", "0"]
    pi1: ["1", "0"]
    pi2: ["0", "1"]
  verification:
    morphism: true
    injective: true
    order_reflecting: true
    bounds:
      0: "0"
      pi1: "1"
      pi2: "1"
    sampled_vectors: 20
    seed: 0
    sampled_ok: true
exit: 0
""",
    "check no-such.json": """\
schema: 1
command: "gea check no-such.json"
error: "cannot read no-such.json: [Errno 2] No such file or directory: 'no-such.json'"
exit: 2
""",
}

# A label's characters are escaped in values, which json.dumps writes, and
# written as they are in keys; a label with a line break exits 2 at load.
NON_ASCII_ORDER = r"""schema: 1
command: "gea order labels.json"
input: "labels.json"
input_digest: "748a70699dc8d386d57d18777312ea1e31b18bc3884647326f598aaaa7a7d57f"
gea:
  passed: true
  violations: []
order:
  strictly_below:
    -
      - "0"
      - "\u03b1"
    -
      - "0"
      - "b\"c"
    -
      - "0"
      - "\u00fc\u2205"
    -
      - "0"
      - "\ud83d\ude00"
  differences:
    0,0: "0"
    \u03b1,0: "\u03b1"
    \u03b1,\u03b1: "0"
    b\"c,0: "b\"c"
    b\"c,b\"c: "0"
    \u00fc\u2205,0: "\u00fc\u2205"
    \u00fc\u2205,\u00fc\u2205: "0"
    \ud83d\ude00,0: "\ud83d\ude00"
    \ud83d\ude00,\ud83d\ude00: "0"
exit: 0
"""


class TestHumanOutput:
    def test_text_report_prints_same_content(self, capsys):
        code, out = run(capsys, "check", cpath("excd"))
        assert code == 0
        assert '"gea check' in out and "passed: true" in out

    @pytest.mark.parametrize("command", sorted(TEXT_REPORTS))
    def test_text_reports_are_pinned(self, command, capsys, monkeypatch):
        monkeypatch.chdir(corpus.path("diamond").parent)
        code, text = run(capsys, *command.split())
        assert text == TEXT_REPORTS[command]
        assert text.endswith(f"exit: {code}\n")

    def test_non_ascii_labels_and_floats_render_as_json_would(self, capsys, monkeypatch,
                                                              tmp_path):
        labels = ["0", "α", "b\"c", "ü∅", "\U0001f600"]
        table = {"elements": labels, "zero": "0",
                 "sums": [[x, "0", x] for x in labels] + [["0", x, x] for x in labels[1:]]}
        (tmp_path / "labels.json").write_text(json.dumps(table), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "order", "labels.json") == (0, NON_ASCII_ORDER)
        value = {"inner_products": {"a": 2.0, "b": 0.1},
                 "x": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2 ** 70],
                 "é": ["\u2028", "\U0001f600", None, True], "nested": [[], {}, {"k": {}}]}
        assert cli._render_text(value) == "\n".join([
            "inner_products:", "  a: 2.0", "  b: 0.1",
            "x: [NaN, Infinity, -Infinity, -0.0, 1e+300, 1180591620717411303424]",
            '\\u00e9: ["\\u2028", "\\ud83d\\ude00", null, true]',
            "nested:", "  - []", "  - {}", "  -", "    k: {}"])

    def test_non_ascii_labels_write_through_an_ascii_stdout(self, monkeypatch, tmp_path):
        # Keys and values are escaped alike, so a stdout that encodes ASCII
        # only, as under PYTHONIOENCODING=ascii, takes the whole text form.
        labels = ["0", "é", "ß"]
        table = {"elements": labels, "zero": "0",
                 "sums": [[x, "0", x] for x in labels] + [["0", x, x] for x in labels[1:]]}
        (tmp_path / "t.json").write_text(json.dumps(table), encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), "ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["order", str(tmp_path / "t.json")]) == 0
        stdout.flush()
        lines = stdout.buffer.getvalue().decode("ascii").splitlines()
        assert '    \\u00e9,0: "\\u00e9"' in lines and lines[-1] == "exit: 0"


def count_calls(monkeypatch, fn):
    """Count calls of fn through every binding of it in the gea modules."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gea" or name.startswith("gea.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOneScanPerPipeline:
    @pytest.mark.parametrize("name, goal, exit_code", [
        ("cube8", "order", 0), ("excd", "separate", 0),
        ("no_states", "order", 3), ("no_states", "separate", 3)])
    def test_represent_scans_and_orders_once(self, capsys, monkeypatch, name, goal, exit_code):
        scans = count_calls(monkeypatch, algebra.check_gea_axioms)
        orders = count_calls(monkeypatch, algebra.induced_order)
        code = main(["represent", cpath(name), "--goal", goal, "--json"])
        capsys.readouterr()
        assert code == exit_code
        assert (len(scans), len(orders)) == (1, 1)

    @pytest.mark.parametrize("name, exit_code", [
        ("cube8", 0), ("diamond", 0), ("ea_no_complement", 1)])
    def test_check_ea_walks_commutativity_and_associativity_once(
            self, capsys, monkeypatch, name, exit_code):
        walks = [count_calls(monkeypatch, walk)
                 for walk in (algebra._two_sided, algebra._associativity)]
        assert main(["check", cpath(name), "--ea", "--json"]) == exit_code
        capsys.readouterr()
        assert [len(calls) for calls in walks] == [1, 1]

    def test_represent_validates_each_witness_state_once(self, capsys, monkeypatch):
        # The search checks each state's length, sign and zero as it takes a
        # new slot, then every state it added in one packed additivity pass,
        # because its LP rechecked the points only against the atom program;
        # verify_morphism makes the one other pass, over the built diagonals.
        passes = count_calls(monkeypatch, algebra.first_nonadditive)
        shaped = []
        validate = states.GeneralizedState.validate

        def counted(state, table, additive=True):
            shaped.append((state, additive))
            validate(state, table, additive)

        monkeypatch.setattr(states.GeneralizedState, "validate", counted)
        assert main(["represent", cpath("cube8"), "--goal", "order", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["representation"]["witnesses"] == 3
        assert len(shaped) == len(set(shaped)) == 3
        assert not any(additive for _, additive in shaped)
        (_, searched), (_, verified) = passes
        assert searched == [state.nums for state, _ in shaped]
        assert len(verified) == 3

    def test_morphism_scans_each_table_once(self, capsys, monkeypatch):
        scans = count_calls(monkeypatch, algebra.check_gea_axioms)
        orders = count_calls(monkeypatch, algebra.induced_order)
        assert main(["morphism", cpath("incl_excd"), "--json"]) == 0
        capsys.readouterr()
        assert (len(scans), len(orders)) == (2, 2)

    @pytest.mark.parametrize("name", ["id_d4", "zero_d4"])
    def test_morphism_scans_a_table_named_twice_once(self, capsys, monkeypatch, name):
        # Both name diamond.json as source and target.
        scans = count_calls(monkeypatch, algebra.check_gea_axioms)
        orders = count_calls(monkeypatch, algebra.induced_order)
        assert main(["morphism", cpath(name), "--json"]) == 0
        capsys.readouterr()
        assert (len(scans), len(orders)) == (1, 1)


# Public names that no command reaches, each kept for a reason.  A name that a
# command comes to reach leaves the list.
UNREACHED = {
    "AlgebraTable.sums": "perfbench and the tests read a table as a dict",
    "random_gea": "tests and perfbench build random tables with it",
    "random_population": "the small-mix workload runs it and pins its digest",
    "gdh_sum": "the sum of G_D(H); the acceptance tests check it",
}


def test_every_public_function_is_reached_by_a_command():
    """Every command runs over the corpus under a profiler.  Each public
    function and method of the gea modules (not the corpus package) must
    run, a property by its getter, except UNREACHED."""
    public = {}  # code object -> name
    for module in (importlib.import_module(f"gea.{info.name}")
                   for info in pkgutil.iter_modules(gea.__path__) if not info.ispkg):
        for name, obj in vars(module).items():
            if name[0] == "_" or getattr(obj, "__module__", "") != module.__name__:
                continue
            for attr, member in vars(obj).items() if isinstance(obj, type) else [("", obj)]:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if attr[:1] != "_" and hasattr(member, "__code__"):
                    public[member.__code__] = f"{name}.{attr}".rstrip(".")
    commands, reached = list(corpus_commands()), set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and reached.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                main(argv)
    finally:
        sys.setprofile(previous)
    assert {name for code, name in public.items() if code not in reached} == set(UNREACHED)


@pytest.fixture
def collector_setting():
    """Put the cyclic collector back as the test found it."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


class TestCollectorSetting:
    """main runs each command with the cyclic collector off, and on every
    exit path leaves it as its caller had it."""

    def argv(self, tmp_path, case):
        not_gea = tmp_path / "morphism.json"
        broken = corpus.load("broken_ge3").elements
        not_gea.write_text(json.dumps({"source": cpath("broken_ge3"), "target": cpath("broken_ge3"),
                                       "map": {lab: lab for lab in broken}}), encoding="utf-8")
        return {"pass": ["check", cpath("excd")],
                "fail": ["check", cpath("broken_ge3")],
                "missing file": ["check", str(tmp_path / "no-such.json")],
                "unwritable out": ["represent", cpath("cube8"),
                                   "--out", str(tmp_path / "missing" / "report.json")],
                "no witness": ["represent", cpath("no_states")],
                "contract error": ["morphism", str(not_gea)]}[case]

    @pytest.mark.parametrize("case, exit_code", [
        ("pass", 0), ("fail", 1), ("missing file", 2), ("unwritable out", 2),
        ("no witness", 3), ("contract error", 1)])
    @pytest.mark.parametrize("collecting", [True, False])
    def test_every_exit_leaves_the_setting(self, capsys, tmp_path, collector_setting,
                                           case, exit_code, collecting):
        argv = self.argv(tmp_path, case)
        (gc.enable if collecting else gc.disable)()
        code, report = run_json(capsys, *argv)
        assert code == report["exit"] == exit_code
        assert ("is not a generalized effect algebra" in report.get("error", "")) == \
            (case == "contract error")
        assert gc.isenabled() == collecting

    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_raising_handler_leaves_the_setting(self, monkeypatch, collector_setting,
                                                  collecting):
        def handler(args):
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli.COMMANDS, "check", (handler, *cli.COMMANDS["check"][1:]))
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["check", cpath("excd")])
        assert gc.isenabled() == collecting

    def test_the_load_runs_with_the_collector_off(self, capsys, monkeypatch, collector_setting):
        seen = []
        load = fileio.load_algebra

        def recording(path):
            seen.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(fileio, "load_algebra", recording)
        gc.enable()
        assert run_json(capsys, "represent", cpath("diamond"))[0] == 0
        assert seen == [False] and gc.isenabled()


class TestClosedStdout:
    @pytest.mark.parametrize("name, exit_code", [("cube8", 0), ("no_states", 3)])
    @pytest.mark.parametrize("read_first", [0, 50])
    def test_reader_closing_early_keeps_exit_code_and_stderr_empty(self, name, exit_code,
                                                                    read_first):
        # Like `gea --json represent ... | head -c 50`; with read_first = 0
        # the read end is closed before the report is printed.
        src = str(Path(gea.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gea.cli", "--json", "represent", cpath(name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.read(read_first)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == exit_code
        assert stderr == b""

    @pytest.mark.parametrize("read_first", [0, 6])
    def test_help_to_a_reader_closing_early_exits_zero(self, read_first):
        # Like `gea --help | head -1` with unbuffered output, where a help text
        # printed in several writes would fail on the second.
        src = str(Path(gea.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "gea.cli", "--help"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(read_first) == b"usage:"[:read_first]
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""


# Run in a fresh interpreter, since this test process has numpy loaded.
FRESH_IMPORTS = """
import contextlib, io, json, sys
from gea.cli import main
exact, bad = json.loads(sys.argv[1]), sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, "--json"]) for argv in exact]
    loaded = sorted({"numpy", "gea.effects", "dataclasses", "argparse"} & set(sys.modules))
    check = main(["effects", "check", bad, "--json"])
    after_check = "dataclasses" in sys.modules
    demo = main(["effects", "demo-excd", "--json"])
    after_demo = "dataclasses" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "check": check, "demo": demo,
                  "dataclasses": [after_check, after_demo]}))
"""


def test_exact_commands_load_neither_numpy_nor_effects(tmp_path):
    """gea.cli and every command but effects run without numpy or gea.effects;
    effects loads them on first use.  No command loads dataclasses, whose
    import (inspect, ast, dis, tokenize) would dominate the start-up time,
    nor argparse."""
    exact = [argv for argv in corpus_commands() if argv[0] != "effects"]
    assert {argv[0] for argv in exact} == {"check", "order", "states", "represent", "morphism"}
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "re": [["0.5"]]}')
    src = str(Path(gea.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORTS, json.dumps(exact), str(bad)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert 2 not in result["codes"]  # every command read its file
    assert result["loaded"] == []
    assert (result["check"], result["demo"]) == (2, 0)
    assert result["dataclasses"] == [False, False]


# -S skips site, whose start-up imports can load random on their own.
NO_RANDOM = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gea.cli import main
loaded = ["random" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, "--json"]) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "loaded": loaded + ["random" in sys.modules]}))
"""


def test_exact_commands_load_no_random():
    """The representation's bound check is exact, so neither gea.cli nor any
    represent run draws or imports random; only gea.generate does."""
    represent = [["represent", cpath(name), "--goal", goal, "--seed", "5"]
                 for name in corpus.VALID for goal in ("order", "separate")]
    src = str(Path(gea.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", NO_RANDOM, src, json.dumps(represent)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["codes"]) <= {0, 3} and 0 in result["codes"]
    assert result["loaded"] == [False, False]


# Hostile input: arbitrary JSON objects over the keys the loaders read.  Most
# draws are malformed; some are valid tables, morphisms or matrices.  Some
# labels hold a control character or a lone surrogate, which the text form
# must never write.
LABELS = ("0", "a", "b", "1", "a,b", "\x1b[31m", "\t", "\ud800")
label = st.sampled_from(LABELS)
leaf = st.one_of(st.none(), st.booleans(), st.integers(min_value=-2, max_value=4),
                 st.floats(), st.text(alphabet="01ab.", max_size=3))
anything = st.recursive(leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(alphabet="01ab", max_size=2), inner, max_size=4)),
    max_leaves=10)
FUZZ_KEYS = {
    "elements": st.lists(label, max_size=5),
    "zero": label,
    "unit": label,
    "sums": st.lists(st.lists(label, min_size=2, max_size=4), max_size=8),
    "source": st.sampled_from(("hostile.json", "table.json")),
    "target": st.sampled_from(("hostile.json", "table.json")),
    "map": st.dictionaries(label, label, max_size=5),
    "dim": st.integers(min_value=-1, max_value=3),
    "re": st.lists(st.lists(st.floats(), max_size=3), max_size=3),
    "im": st.lists(st.lists(st.floats(), max_size=3), max_size=3),
}
hostile_objects = st.fixed_dictionaries({}, optional={
    key: st.one_of(shaped, anything) for key, shaped in FUZZ_KEYS.items()})
FUZZ_COMMANDS = (["check"], ["order"], ["states"], ["represent"], ["morphism"],
                 ["effects", "check"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "table.json").write_text(corpus.path("diamond").read_text(encoding="utf-8"),
                                     encoding="utf-8")
    return path


@settings(max_examples=120, deadline=None)
@given(data=hostile_objects)
@example(data={"elements": ["0", "\ud800"], "zero": "0",
               "sums": [["0", "0", "0"], ["0", "\ud800", "\ud800"], ["\ud800", "0", "\ud800"]]})
@example(data={"elements": ["0", "\x1b[31m"], "zero": "0",
               "sums": [["0", "0", "0"], ["0", "\x1b[31m", "\x1b[31m"],
                        ["\x1b[31m", "0", "\x1b[31m"]]})
def test_hostile_json_exits_with_a_documented_code(fuzz_dir, data):
    path = fuzz_dir / "hostile.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path), "--json"])
        assert code in (0, 1, 2, 3), (command, data)
        assert err.getvalue() == ""
        if code == 2:
            assert "error" in json.loads(out.getvalue())
    # The text form through a strict UTF-8 encoder, as a real stdout: every
    # line it writes is printable.
    out, err = io.TextIOWrapper(io.BytesIO(), "utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["order", str(path)])
    text = out.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2), data
    assert err.getvalue() == "" and all(map(str.isprintable, text.splitlines())), data
