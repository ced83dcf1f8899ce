"""Seeded table families, built without importing the program under test.

A table is a plain dict in the program's JSON file format: ``elements`` (a
list of labels), ``zero``, an optional ``unit`` and ``sums`` (a list of
``[x, y, z]`` label triples meaning x + y = z).  Everything here is written
from the definitions, so no change to the program can alter the inputs the
benchmark feeds it.

Labels never contain a comma: the program keys per-pair provenance as
``"a,b"``, which a comma inside a label would make ambiguous.
"""

from __future__ import annotations

import random
import string


def chain(n: int) -> dict:
    """The chain C_n = {0, 1, ..., n-1} with i + j = i + j whenever that is
    at most n - 1.  Its unit is n - 1, so it is an effect algebra."""
    labels = [str(k) for k in range(n)]
    sums = [[labels[i], labels[j], labels[i + j]]
            for i in range(n) for j in range(n) if i + j < n]
    return {"elements": labels, "zero": "0", "unit": labels[-1], "sums": sums}


def no_states() -> dict:
    """Two atoms glued by doubling: a + a = c = b + b.  Every generalized
    state takes the same value at a and b, so none separates or orders them."""
    sums = [["0", x, x] for x in "0abc"] + [[x, "0", x] for x in "abc"]
    sums += [["a", "a", "c"], ["b", "b", "c"]]
    return {"elements": ["0", "a", "b", "c"], "zero": "0", "sums": sums}


def product(*parts: dict) -> dict:
    """Componentwise product: a sum is defined iff it is in every factor."""
    table = parts[0]
    for right in parts[1:]:
        table = _product2(table, right)
    return table


def _product2(left: dict, right: dict) -> dict:
    def pair(x: str, y: str) -> str:
        return f"{x}:{y}"

    labels = [pair(x, y) for x in left["elements"] for y in right["elements"]]
    sums = [[pair(x1, y1), pair(x2, y2), pair(x3, y3)]
            for x1, x2, x3 in left["sums"] for y1, y2, y3 in right["sums"]]
    table = {"elements": labels, "zero": pair(left["zero"], right["zero"]),
             "sums": sums}
    if left.get("unit") is not None and right.get("unit") is not None:
        table["unit"] = pair(left["unit"], right["unit"])
    return table


def cube(atoms: int) -> dict:
    """The Boolean cube on k atoms, as the product of k copies of C_2."""
    return product(*[chain(2)] * atoms)


def horizontal_sum(*parts: dict) -> dict:
    """Glue the parts at zero: the nonzero elements stay apart and a sum is
    defined only inside one part.  The result has no unit."""
    labels = ["0"]
    sums = [["0", "0", "0"]]
    for p, part in enumerate(parts):
        zero = part["zero"]

        def tag(x: str, p: int = p, zero: str = zero) -> str:
            return "0" if x == zero else f"p{p}.{x}"

        labels += [tag(x) for x in part["elements"] if x != zero]
        sums += [[tag(x), tag(y), tag(z)] for x, y, z in part["sums"]
                 if not (x == y == zero)]
    return {"elements": labels, "zero": "0", "sums": sums}


def antichain(atoms: int) -> dict:
    """Horizontal sum of k two-element chains: k atoms and only zero sums."""
    return horizontal_sum(*[chain(2)] * atoms)


def disguise(table: dict, rng: random.Random) -> tuple[dict, dict]:
    """Shuffle the element order and the sum list, and rename every label
    with a fresh random prefix.

    Returns the new table and the label map old -> new.  The element order
    fixes the variable order of every LP, so it changes the simplex pivot
    path; the new labels keep equal structures from looking like repeats.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(4)) + "_"
    rename = {x: prefix + x for x in table["elements"]}
    labels = [rename[x] for x in table["elements"]]
    rng.shuffle(labels)
    sums = [[rename[x] for x in triple] for triple in table["sums"]]
    rng.shuffle(sums)
    out = {"elements": labels, "zero": rename[table["zero"]], "sums": sums}
    if table.get("unit") is not None:
        out["unit"] = rename[table["unit"]]
    return out, rename
