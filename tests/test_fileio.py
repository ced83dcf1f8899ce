import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gea import corpus
from gea.algebra import require_gea
from gea.cli import main
from gea.effects import EffectMatrix
from gea.errors import InputError
from gea.fileio import load_algebra, load_matrix, load_morphism, ratio_strs, witness_set_to_json
from gea.states import separating_set
from reference import write_matrix, write_table


def test_algebra_round_trip(tmp_path, diamond):
    path = tmp_path / "diamond.json"
    write_table(diamond, path)
    again = load_algebra(path)[0]
    assert again == diamond


def test_conflicting_sum_entries_rejected(tmp_path):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps({
        "elements": ["0", "a", "b"],
        "zero": "0",
        "sums": [["0", "a", "a"], ["0", "a", "b"]],
    }))
    with pytest.raises(InputError):
        load_algebra(path)


def test_duplicate_identical_entries_tolerated(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "elements": ["0"],
        "zero": "0",
        "sums": [["0", "0", "0"], ["0", "0", "0"]],
    }))
    assert load_algebra(path)[0].n == 1


def test_unknown_label_rejected(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({
        "elements": ["0", "a"],
        "zero": "0",
        "sums": [["0", "zz", "a"]],
    }))
    with pytest.raises(InputError):
        load_algebra(path)


@pytest.mark.parametrize("sums, message", [
    ([["0", "zz", "a"]], "unknown element label 'zz'"),
    ([["0", 5, "a"]], "unknown element label 5"),
    ([["0", "a", None]], "unknown element label None"),
    ([[["a"], "a", "a"]], "unknown element label ['a']"),
    ([["0", {"a": 1}, "a"]], "unknown element label {'a': 1}"),
    ([["0", "a", "a"], ["xx", "yy", "zz"]], "unknown element label 'xx'"),
    ([["a", "yy", 7]], "unknown element label 'yy'"),
    ([["0", "a"]], "sum entries must be [x, y, z] triples"),
    ([["0", "a", "a"], "0aa"], "sum entries must be [x, y, z] triples"),
    ([["0", "a", "a"], 5], "sum entries must be [x, y, z] triples"),
    ([["0", "a", "a"], ["0", "a", "b"]], "conflicting entries for 0+a"),
    ([["a", "b", "b"], ["a", "b", "b"], ["a", "b", "0"], ["0", "zz", "a"]],
     "conflicting entries for a+b"),
], ids=["unknown", "int", "null", "list", "object", "first-of-three", "second-of-three",
        "two-items", "string-entry", "int-entry", "conflict", "conflict-before-unknown"])
def test_malformed_sum_entry_messages(tmp_path, sums, message):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"elements": ["0", "a", "b"], "zero": "0", "sums": sums}))
    with pytest.raises(InputError) as caught:
        load_algebra(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("shape", [
    {"elements": ["0", "a"], "zero": "0", "sums": 5},
    {"elements": [["a"], "b"], "zero": "b", "sums": []},
    {"elements": "0a", "zero": "0", "sums": []},
], ids=["sums-not-a-list", "label-not-a-string", "elements-not-a-list"])
def test_malformed_table_shapes_rejected(tmp_path, shape):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape))
    with pytest.raises(InputError):
        load_algebra(path)


def test_label_with_comma_rejected(tmp_path):
    # "a,b" would read as the pair key of a and b in a report.
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({
        "elements": ["0", "a", "b", "a,b"],
        "zero": "0",
        "sums": [["0", "a", "a"]],
    }))
    with pytest.raises(InputError, match="','"):
        load_algebra(path)


@pytest.mark.parametrize("label", ["a\nb", "a\r", "\u2028b", "\x1b[31m", "\t", "\x00", "\u202e",
                                   "\ud800"])
def test_label_with_line_break_rejected(tmp_path, monkeypatch, capsys, label):
    # The text form writes a report's keys as they are: a line break would
    # split its line, a control or format character reach the terminal, and
    # a lone surrogate fail the UTF-8 encoder.
    path = tmp_path / "break.json"
    path.write_text(json.dumps({"elements": ["0", label], "zero": "0", "sums": []}))
    message = f"{path}: element label {label!r} is not printable"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_algebra(path)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "break.json"]) == 2
    assert "is not printable" in capsys.readouterr().out


def test_morphism_must_be_total(tmp_path, diamond):
    table_path = tmp_path / "t.json"
    write_table(diamond, table_path)
    morphism_path = tmp_path / "m.json"
    morphism_path.write_text(json.dumps({
        "source": "t.json", "target": "t.json", "map": {"0": "0", "a": "a"},
    }))
    with pytest.raises(InputError):
        load_morphism(morphism_path)


@pytest.mark.parametrize("raw", [b'{"elements": ["0"],\r\n"zero": "0",\r\n\r\n}',
                                 b'{"elements": ["0"],\r"zero": "0",\r\r}'])
def test_json_errors_count_positions_as_a_text_mode_read(tmp_path, raw):
    # Error messages name line, column and character as they did when files
    # were read in text mode, which turns \r\n and \r into \n.
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as handle, pytest.raises(ValueError) as text_mode:
        json.load(handle)
    with pytest.raises(InputError) as loaded:
        load_algebra(path)
    assert str(loaded.value) == f"{path} is not valid JSON: {text_mode.value}"


@pytest.mark.parametrize("raw, error", [
    (b'{"elements": ["0", "a"],\r\n "zero": "0",\r\n "sums": [["0", "0", "0"],\r\n   oops]}\r\n',
     "Expecting value: line 4 column 4 (char 69)"),
    (b'{"elements": ["0", "a"],\r "zero": "0",\r "sums": [["0", "0", "0"],\r   oops]}\r',
     "Expecting value: line 4 column 4 (char 69)"),
])
def test_json_error_positions_in_the_exit_2_report(tmp_path, monkeypatch, capsys, raw, error):
    # Line, column and character as a text-mode read counts them, the line
    # ends translated only when the file holds a \r.
    (tmp_path / "bad.json").write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "bad.json", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == f"bad.json is not valid JSON: {error}"


def test_crlf_file_digest_is_of_its_bytes(tmp_path, monkeypatch, capsys):
    raw = b'{"elements": ["0"],\r\n "zero": "0",\r\n "sums": [["0", "0", "0"]]}\r\n'
    (tmp_path / "t.json").write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "t.json", "--json"]) == 0
    digest = json.loads(capsys.readouterr().out)["input_digest"]
    assert digest == hashlib.sha256(raw).hexdigest()
    assert digest == "f6d6211cb912fdeaf7ec1667ac7a8d5274fdc3b9f746a874977eaaf14ce4d8bf"


def test_corpus_morphism_paths_resolve_relative():
    spec = load_morphism(corpus.path("incl_excd"))[0]
    assert spec.source.table.elements == ("0", "pi1", "pi2")
    assert spec.target.table.elements == ("0", "pi1", "pi2", "id")


def test_matrix_round_trip(tmp_path):
    mat = EffectMatrix(np.array([[1.0, 0.5j], [-0.5j, 2.0]]))
    path = tmp_path / "m.json"
    write_matrix(mat, path)
    again = load_matrix(path)[0]
    assert np.allclose(again.mat, mat.mat)


def test_matrix_missing_im_defaults_to_zero(tmp_path):
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"dim": 1, "re": [[3.0]]}))
    assert load_matrix(path)[0].mat[0, 0] == 3.0


HUGE = "9" * 400  # an int that json parses but no float holds


@pytest.mark.parametrize("body, message", [
    (f'"re": [[{HUGE}]]', "'re' has an entry too large for a float"),
    (f'"re": [[1]], "im": [[-{HUGE}]]', "'im' has an entry too large for a float"),
    ('"re": [["0.5"]]', "'re' must be a 1x1 array of numbers"),
    ('"re": [[true]]', "'re' must be a 1x1 array of numbers"),
    ('"re": [[1]], "im": [[" 0 "]]', "'im' must be a 1x1 array of numbers"),
    ('"re": [[1]], "im": null', "'im' must be a 1x1 array of numbers"),
    ('"re": [1]', "'re' must be a 1x1 array of numbers"),
    ('"re": [[1, 2]]', "re/im must be 1x1"),
], ids=["huge-re", "huge-im", "string", "bool", "string-im", "null-im", "flat", "shape"])
def test_matrix_entries_must_be_json_numbers(tmp_path, body, message):
    path = tmp_path / "m.json"
    path.write_text(f'{{"dim": 1, {body}}}')
    with pytest.raises(InputError) as caught:
        load_matrix(path)
    assert str(caught.value) == f"{path}: {message}"


def test_matrix_int_that_fits_a_float_accepted(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 1, "re": [[2 ** 70]], "im": [[-3]]}))
    assert load_matrix(path)[0].mat[0, 0] == complex(2.0 ** 70, -3.0)


def test_frac_codec():
    assert ratio_strs([3, -6, 0, 8], 2) == ["3/2", "-3", "0", "4"]
    assert ratio_strs([-6, 5], 4) == ["-3/2", "5/4"]
    assert ratio_strs([-6, 5], 1) == ["-6", "5"]


@given(st.lists(st.integers(-10**20, 10**20), max_size=5),
       st.one_of(st.just(1), st.integers(1, 10**6)))
def test_ratio_str_reads_as_fraction(nums, den):
    assert ratio_strs(nums, den) == [str(Fraction(p, den)) for p in nums]


def test_witness_json_shape(chain_c3):
    payload = witness_set_to_json(chain_c3, separating_set(require_gea(chain_c3)))
    assert payload["goal"] == "separate"
    assert payload["states"] == [["0", "1", "2"]]
    assert payload["failures"] == []
    # One state, made by the first pair; it also separates the other two.
    assert payload["provenance"] == {"0,h": 0}
