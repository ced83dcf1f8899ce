import json

import numpy as np

from gea import corpus
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


class TestHumanOutput:
    def test_text_report_prints_same_content(self, capsys):
        code, out = run(capsys, "check", cpath("excd"))
        assert code == 0
        assert '"gea check' in out and "passed: true" in out
