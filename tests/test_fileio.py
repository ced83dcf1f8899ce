import json
from fractions import Fraction

import numpy as np
import pytest

from gea import corpus
from gea.effects import EffectMatrix
from gea.errors import InputError
from gea.fileio import (algebra_to_json, frac_str, load_algebra, load_matrix,
                        load_morphism, parse_frac, save_algebra, save_matrix,
                        witness_set_to_json)
from gea.states import separating_set


def test_algebra_round_trip(tmp_path, diamond):
    path = tmp_path / "diamond.json"
    save_algebra(diamond, path)
    again = load_algebra(path)
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
    assert load_algebra(path).n == 1


def test_unknown_label_rejected(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({
        "elements": ["0", "a"],
        "zero": "0",
        "sums": [["0", "zz", "a"]],
    }))
    with pytest.raises(InputError):
        load_algebra(path)


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


def test_morphism_must_be_total(tmp_path, diamond):
    table_path = tmp_path / "t.json"
    save_algebra(diamond, table_path)
    morphism_path = tmp_path / "m.json"
    morphism_path.write_text(json.dumps({
        "source": "t.json", "target": "t.json", "map": {"0": "0", "a": "a"},
    }))
    with pytest.raises(InputError):
        load_morphism(morphism_path)


def test_corpus_morphism_paths_resolve_relative():
    spec = load_morphism(corpus.path("incl_excd"))
    assert spec.source.elements == ("0", "pi1", "pi2")
    assert spec.target.elements == ("0", "pi1", "pi2", "id")


def test_matrix_round_trip(tmp_path):
    mat = EffectMatrix(np.array([[1.0, 0.5j], [-0.5j, 2.0]]))
    path = tmp_path / "m.json"
    save_matrix(mat, path)
    again = load_matrix(path)
    assert np.allclose(again.mat, mat.mat)


def test_matrix_missing_im_defaults_to_zero(tmp_path):
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"dim": 1, "re": [[3.0]]}))
    assert load_matrix(path).mat[0, 0] == 3.0


def test_frac_codec():
    assert frac_str(Fraction(3, 2)) == "3/2"
    assert parse_frac("3/2") == Fraction(3, 2)
    assert parse_frac("-4") == Fraction(-4)
    with pytest.raises(InputError):
        parse_frac("1/0")


def test_witness_json_shape(chain_c3):
    payload = witness_set_to_json(chain_c3, separating_set(chain_c3))
    assert payload["goal"] == "separate"
    assert payload["states"] == [["0", "1", "2"]]
    assert payload["failures"] == []
    assert set(payload["provenance"]) == {"0,h", "0,1", "h,1"}


def test_algebra_json_keeps_unit(diamond):
    data = algebra_to_json(diamond)
    assert data["unit"] == "1"
    assert ["a", "b", "1"] in data["sums"]
