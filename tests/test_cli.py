import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gea
from gea import algebra, corpus
from gea import cli
from gea.cli import main
from gea.effects import EffectMatrix
from gea.fileio import save_matrix


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
        assert "error" in report

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

    def test_out_writes_identical_payload(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, report = run_json(capsys, "represent", cpath("chain_c3"),
                                "--goal", "order", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text()) == report

    def test_reports_are_deterministic(self, capsys):
        _, first = run(capsys, "represent", cpath("cube8"), "--goal", "order", "--json")
        _, second = run(capsys, "represent", cpath("cube8"), "--goal", "order", "--json")
        assert first == second

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GEA_SEED", "7")
        _, report = run_json(capsys, "represent", cpath("excd"), "--goal", "order")
        assert report["representation"]["verification"]["seed"] == 7
        _, explicit = run_json(capsys, "represent", cpath("excd"),
                               "--goal", "order", "--seed", "9")
        assert explicit["representation"]["verification"]["seed"] == 9

    def test_malformed_seed_env_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("GEA_SEED", "abc")
        code, report = run_json(capsys, "represent", cpath("excd"), "--goal", "order")
        assert code == 2
        assert "GEA_SEED" in report["error"]


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


class TestEffects:
    def test_demo_excd(self, capsys):
        code, report = run_json(capsys, "effects", "demo-excd")
        assert code == 0
        assert report["demo"]["embedding"] is False

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
        save_matrix(EffectMatrix(np.array([[1e16, 0.0], [0.0, 1e16]])), path_a)
        save_matrix(EffectMatrix(np.array([[1e16, 1.0], [1.0, 1e16]])), path_b)
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

    def test_witness_none_when_below(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        save_matrix(EffectMatrix(np.zeros((2, 2))), zero)
        code, report = run_json(capsys, "effects", "witness", str(zero), cpath("mat_a"))
        assert code == 0
        assert report["witness"] is None and report["a_below_b"]

    def test_check_positive(self, capsys):
        code, report = run_json(capsys, "effects", "check", cpath("mat_a"))
        assert code == 0
        assert report["matrix"]["positive"] and not report["matrix"]["effect"]

    def test_check_indefinite_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "indefinite.json"
        save_matrix(EffectMatrix(np.diag([1.0, -1.0]).astype(complex)), bad)
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
                     '"re": [["x"]]', '"re": [[{}]]'):
            bad.write_text(f'{{"dim": 1, {body}}}')
            code, report = run_json(capsys, "effects", "check", str(bad))
            assert code == 2 and "error" in report, body


# Files that the JSON parser itself rejects, each beyond a plain syntax error.
MALFORMED_FILES = {
    "deep": ("[" * 100_000 + "]" * 100_000).encode(),
    "latin1": '{"elements": ["0", "\u00e9"], "zero": "0", "sums": []}'.encode("latin-1"),
    "digits": ('{"elements": ["0"], "zero": "0", "sums": [], "dim": '
               + "7" * 5000 + "}").encode(),
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


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["states", "represent"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, command):
        out_file = tmp_path / "missing" / "report.json"
        code = main([command, cpath("cube8"), "--out", str(out_file), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert str(out_file) in json.loads(captured.out)["error"]
        assert captured.err == ""
        assert not out_file.exists()


class TestParserReuse:
    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        # The parser is built once per process; flags of one call must not
        # leak into the next (--seed, --json and --goal in both positions).
        calls = [
            ["--seed", "5", "represent", cpath("excd"), "--goal", "separate", "--json"],
            ["represent", cpath("excd"), "--json"],
            ["check", cpath("diamond"), "--ea", "--seed", "3", "--json"],
            ["--json", "check", cpath("diamond")],
            ["states", cpath("excd")],
            ["represent", cpath("diamond"), "--json", "--seed", "7"],
        ]
        in_a_row = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert in_a_row == fresh
        assert json.loads(in_a_row[0][1])["representation"]["verification"]["seed"] == 5
        assert json.loads(in_a_row[1][1])["representation"]["verification"]["seed"] == 0
        assert "ea" in json.loads(in_a_row[2][1]) and "ea" not in json.loads(in_a_row[3][1])
        assert not in_a_row[4][1].startswith("{")


class TestHumanOutput:
    def test_text_report_prints_same_content(self, capsys):
        code, out = run(capsys, "check", cpath("excd"))
        assert code == 0
        assert '"gea check' in out and "passed: true" in out


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

    def test_morphism_scans_each_table_once(self, capsys, monkeypatch):
        scans = count_calls(monkeypatch, algebra.check_gea_axioms)
        orders = count_calls(monkeypatch, algebra.induced_order)
        assert main(["morphism", cpath("incl_excd"), "--json"]) == 0
        capsys.readouterr()
        assert (len(scans), len(orders)) == (2, 2)


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


# Hostile input: arbitrary JSON objects over the keys the loaders read.  Most
# draws are malformed; some are valid tables, morphisms or matrices.
LABELS = ("0", "a", "b", "1", "a,b")
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
