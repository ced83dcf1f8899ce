"""JSON file formats: algebra tables, morphisms, witness sets, representations
and complex matrices.  Rationals travel as Fraction strings ("3/2", "-1", "0").
Each loader reads its file once and returns its value with the file's SHA-256.
load_algebra resolves the sum triples and hands them to the table's one fill.

States and representations hold int numerators over one denominator; their
strings are made here and read exactly as str(Fraction) does.  Only
load_matrix imports numpy and gea.effects, so the exact file formats load
without them."""

from __future__ import annotations

import hashlib
import json
from math import gcd
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

from .algebra import AlgebraTable, MorphismSpec, require_gea
from .errors import ContractError, InputError
from .represent import DiagonalRep
from .states import StateWitnessSet

if TYPE_CHECKING:
    import numpy as np

    from .effects import EffectMatrix

PathLike = Union[str, Path]


def ratio_strs(nums: Iterable[int], den: int) -> list[str]:
    """The string of each p/den (den > 0) in lowest terms, as str(Fraction(p, den))."""
    if den == 1:
        return list(map(str, nums))
    out = []
    for p in nums:
        common = gcd(p, den)
        out.append(str(p // common) if common == den else f"{p // common}/{den // common}")
    return out


def _read_json(path: PathLike) -> tuple[dict, str]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw.decode("utf-8")  # strict UTF-8
        # \r\n and \r become \n, as in a text-mode read, for JSON's error positions.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit; deep nesting
        # exhausts the parser's recursion.
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _resolve(index: dict[str, int], label: object) -> int:
    """The index of an element label, or InputError."""
    if not isinstance(label, str) or label not in index:
        raise InputError(f"unknown element label {label!r}")
    return index[label]


def load_algebra(path: PathLike) -> tuple[AlgebraTable, str]:
    """Read an algebra file: elements, zero, optional unit, sum triples."""
    data, digest = _read_json(path)
    try:
        labels = data["elements"]
        zero_label = data["zero"]
        triples = data["sums"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not isinstance(labels, list):
        raise InputError(f"{path}: \"elements\" must be a list of labels")
    if not labels:  # before the zero label, which no empty list holds
        raise InputError(f"{path}: algebra needs at least one element")
    if not all(isinstance(lab, str) for lab in labels):
        raise InputError(f"{path}: element labels must be strings")
    comma = next((lab for lab in labels if "," in lab), None)
    if comma is not None:
        # Reports key element pairs as "a,b", which a comma in a label
        # would make ambiguous.
        raise InputError(f"{path}: element label {comma!r} contains ','")
    broken = next((lab for lab in labels if "".join(lab.splitlines()) != lab), None)
    if broken is not None:
        # The text form writes keys as they are, and a line break in one
        # would split its line.
        raise InputError(f"{path}: element label {broken!r} contains a line break")
    if not isinstance(triples, list):
        raise InputError(f"{path}: \"sums\" must be a list of [x, y, z] triples")
    if len(set(labels)) != len(labels):
        raise InputError(f"{path}: duplicate element labels")
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(entry: object) -> tuple[int, ...]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise InputError("sum entries must be [x, y, z] triples")
        return tuple(_resolve(index, v) for v in entry)  # raises on the first bad label

    try:  # the labels of the unit and zero first, then the triples in file order
        unit = _resolve(index, data["unit"]) if data.get("unit") is not None else None
        zero = _resolve(index, zero_label)
        try:  # on a bad entry, entry by entry as the table fills, so that
            # a conflict before that entry is the error reported
            if set(map(type, triples)) - {list}:
                raise TypeError
            resolved = [(index[x], index[y], index[z]) for x, y, z in triples]
        except (KeyError, TypeError, ValueError):
            resolved = map(resolve, triples)
        return AlgebraTable(tuple(labels), zero, resolved, unit), digest
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_morphism(path: PathLike) -> tuple[MorphismSpec, str]:
    """Read a morphism file; source/target paths resolve relative to it.
    Each table file gets its one read and GEA axiom scan here (ContractError
    naming the side and its file if one fails)."""
    data, digest = _read_json(path)
    base = Path(path).parent
    try:
        source_path, target_path, mapping = data["source"], data["target"], data["map"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not (isinstance(source_path, str) and isinstance(target_path, str)):
        raise InputError(f"{path}: \"source\" and \"target\" must be file names")
    if not isinstance(mapping, dict):
        raise InputError(f"{path}: \"map\" must be an object from labels to labels")
    source = load_algebra(base / source_path)[0]
    target = source if target_path == source_path else load_algebra(base / target_path)[0]
    if set(mapping) != set(source.elements):
        raise InputError(f"{path}: map must be total on the source elements")
    index = {lab: i for i, lab in enumerate(target.elements)}
    try:
        images = tuple(_resolve(index, mapping[lab]) for lab in source.elements)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    checked = {}
    for side, name, table in (("source", source_path, source), ("target", target_path, target)):
        try:
            checked[name] = checked.get(name) or require_gea(table)
        except ContractError as exc:
            raise ContractError(f"{path}: {side} {base / name}: {exc}") from None
    return MorphismSpec(checked[source_path], checked[target_path], images), digest


def _pair_key(table: AlgebraTable, pair: tuple[int, int]) -> str:
    return f"{table.elements[pair[0]]},{table.elements[pair[1]]}"


def witness_set_to_json(table: AlgebraTable, witnesses: StateWitnessSet) -> dict:
    return {
        "goal": witnesses.goal,
        "states": [ratio_strs(s.nums, s.den) for s in witnesses.states],
        "provenance": {_pair_key(table, pair): slot
                       for pair, slot in witnesses.provenance.items()},
        "failures": [[table.elements[a], table.elements[b]]
                     for a, b in witnesses.failures],
    }


def representation_to_json(table: AlgebraTable, rep: DiagonalRep, verification: dict) -> dict:
    """The representation under the table's labels, m entries per diagonal."""
    return {
        "witnesses": rep.m,
        "operators": {label: ratio_strs(diagonal, rep.den)
                      for label, diagonal in zip(table.elements, rep.diagonals)},
        "verification": verification,
    }


def _float_matrix(path: PathLike, key: str, value: object, dim: int) -> np.ndarray:
    """A dim x dim array of JSON numbers (int or float, not bool) as floats."""
    import numpy as np

    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and {type(x) for row in value for x in row} <= {int, float}):
        raise InputError(f"{path}: {key!r} must be a {dim}x{dim} array of numbers")
    if len(value) != dim or any(len(row) != dim for row in value):
        raise InputError(f"{path}: re/im must be {dim}x{dim}")
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:  # an int past the float range
        raise InputError(f"{path}: {key!r} has an entry too large for a float") from None
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: {key!r} has a non-finite entry")
    return arr


def load_matrix(path: PathLike) -> tuple[EffectMatrix, str]:
    import numpy as np
    from .effects import EffectMatrix

    data, digest = _read_json(path)
    try:
        dim = data["dim"]
        re_data = data["re"]
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{path}: \"dim\" must be a positive integer, got {dim!r}")
    re = _float_matrix(path, "re", re_data, dim)
    im = _float_matrix(path, "im", data["im"], dim) if "im" in data else np.zeros((dim, dim))
    return EffectMatrix(re + 1j * im), digest
