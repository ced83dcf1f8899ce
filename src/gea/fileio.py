"""JSON file formats: algebra tables, morphisms, witness sets, representations
and complex matrices.  Rationals travel as Fraction strings ("3/2", "-1", "0").

States and representations hold int numerators over one denominator; their
strings are made here and read exactly as str(Fraction) does."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Union

import numpy as np

from .algebra import AlgebraTable, MorphismSpec, require_gea
from .effects import EffectMatrix
from .errors import InputError
from .represent import DiagonalRep
from .states import StateWitnessSet

PathLike = Union[str, Path]


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def ratio_str(p: int, q: int) -> str:
    """The string of p/q (q > 0) in lowest terms, as str(Fraction(p, q))."""
    common = gcd(p, q)
    return str(p // common) if common == q else f"{p // common}/{q // common}"


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}") from exc


def _read_json(path: PathLike) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit; deep nesting
        # exhausts the parser's recursion.
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def load_algebra(path: PathLike) -> AlgebraTable:
    """Read an algebra file: elements, zero, optional unit, sum triples."""
    data = _read_json(path)
    try:
        labels = data["elements"]
        zero_label = data["zero"]
        triples = data["sums"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not isinstance(labels, list):
        raise InputError(f"{path}: \"elements\" must be a list of labels")
    if not all(isinstance(lab, str) for lab in labels):
        raise InputError(f"{path}: element labels must be strings")
    comma = next((lab for lab in labels if "," in lab), None)
    if comma is not None:
        # Reports key element pairs as "a,b", which a comma in a label
        # would make ambiguous.
        raise InputError(f"{path}: element label {comma!r} contains ','")
    if not isinstance(triples, list):
        raise InputError(f"{path}: \"sums\" must be a list of [x, y, z] triples")
    if len(set(labels)) != len(labels):
        raise InputError(f"{path}: duplicate element labels")
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(label: object) -> int:
        if not isinstance(label, str) or label not in index:
            raise InputError(f"{path}: unknown element label {label!r}")
        return index[label]

    sums: dict[tuple[int, int], int] = {}
    for entry in triples:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise InputError(f"{path}: sum entries must be [x, y, z] triples")
        i, j, k = (resolve(lab) for lab in entry)
        if (i, j) in sums and sums[(i, j)] != k:
            raise InputError(
                f"{path}: conflicting entries for {entry[0]}+{entry[1]}")
        sums[(i, j)] = k
    unit = resolve(data["unit"]) if "unit" in data and data["unit"] is not None else None
    return AlgebraTable(tuple(labels), resolve(zero_label), sums, unit)


def algebra_to_json(table: AlgebraTable) -> dict:
    data = {
        "elements": list(table.elements),
        "zero": table.elements[table.zero],
        "sums": [[table.elements[i], table.elements[j], table.elements[k]]
                 for i, j, k in table.defined_sums()],
    }
    if table.unit is not None:
        data["unit"] = table.elements[table.unit]
    return data


def save_algebra(table: AlgebraTable, path: PathLike) -> None:
    Path(path).write_text(json.dumps(algebra_to_json(table), indent=2) + "\n",
                          encoding="utf-8")


def load_morphism(path: PathLike) -> MorphismSpec:
    """Read a morphism file; source/target paths resolve relative to it.
    Both tables get their one GEA axiom scan here (ContractError if one
    fails)."""
    data = _read_json(path)
    base = Path(path).parent
    try:
        source_path, target_path, mapping = data["source"], data["target"], data["map"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not (isinstance(source_path, str) and isinstance(target_path, str)):
        raise InputError(f"{path}: \"source\" and \"target\" must be file names")
    if not isinstance(mapping, dict):
        raise InputError(f"{path}: \"map\" must be an object from labels to labels")
    source = load_algebra(base / source_path)
    target = load_algebra(base / target_path)
    if set(mapping) != set(source.elements):
        raise InputError(f"{path}: map must be total on the source elements")
    images = tuple(target.index(mapping[lab]) for lab in source.elements)
    return MorphismSpec(require_gea(source), require_gea(target), images)


def _pair_key(table: AlgebraTable, pair: tuple[int, int]) -> str:
    return f"{table.elements[pair[0]]},{table.elements[pair[1]]}"


def witness_set_to_json(table: AlgebraTable, witnesses: StateWitnessSet) -> dict:
    return {
        "goal": witnesses.goal,
        "states": [[ratio_str(p, s.den) for p in s.nums] for s in witnesses.states],
        "provenance": {_pair_key(table, pair): slot
                       for pair, slot in sorted(witnesses.provenance.items())},
        "failures": [[table.elements[a], table.elements[b]]
                     for a, b in witnesses.failures],
    }


def representation_to_json(rep: DiagonalRep, verification: dict) -> dict:
    return {
        "witnesses": rep.m,
        "order": list(rep.slot_labels),
        "operators": {label: [ratio_str(p, rep.den) for p in rep.diagonals[i]]
                      for i, label in enumerate(rep.elements)},
        "verification": verification,
    }


def _float_matrix(path: PathLike, key: str, value: object, dim: int) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {key!r} must be a {dim}x{dim} array of numbers") from exc
    if arr.shape != (dim, dim):
        raise InputError(f"{path}: re/im must be {dim}x{dim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: {key!r} has a non-finite entry")
    return arr


def load_matrix(path: PathLike) -> EffectMatrix:
    data = _read_json(path)
    try:
        dim = data["dim"]
        re_data = data["re"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{path}: \"dim\" must be a positive integer, got {dim!r}")
    re = _float_matrix(path, "re", re_data, dim)
    im = _float_matrix(path, "im", data["im"], dim) if "im" in data else np.zeros((dim, dim))
    return EffectMatrix(re + 1j * im)


def save_matrix(matrix: EffectMatrix, path: PathLike) -> None:
    data = {
        "dim": matrix.dim,
        "re": matrix.mat.real.tolist(),
        "im": matrix.mat.imag.tolist(),
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
