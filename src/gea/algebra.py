"""Finite partial algebras given as explicit sum tables.

The table stores a partial binary operation x + y on indexed elements.  An
AlgebraTable holds it once as a padded list of rows: rows[i][j] is the index
of x_i + x_j, or -1 when the sum is undefined, and the last row and column are
-1 padding, so a lookup through an undefined sum, rows[-1][j], reads -1 too.
All checks are exhaustive scans that read those rows by list index.  The
associativity scan walks only the triples whose left side is defined and
counts the triples whose right side is defined, so its cost follows the
number of defined triples, not n^3.

A pipeline runs the GEA scan once: scan_gea and require_gea return a
CheckedGEA, the table with its induced order, and the later stages
(witness searches, representation, morphism classifier) take that value
instead of scanning again.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import ContractError, InputError


class AlgebraTable(namedtuple("AlgebraTable", "elements zero sums unit rows")):
    """A finite partial algebra: labelled elements, a zero, an optional unit,
    and a partial sum table mapping index pairs to the index of their sum.

    Both (i, j) and (j, i) must be present in the table for a commutative sum;
    the checker reports one-sided entries instead of symmetrizing silently.

    rows is the same table as (n + 1) x (n + 1) lists, -1 for an undefined
    sum and in the padding row and column; sums is its view as a dict in
    sorted key order.  Neither may be changed.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[str, ...], zero: int,
                sums: Mapping[tuple[int, int], int], unit: Optional[int] = None) -> AlgebraTable:
        n = len(elements)
        if n < 1:
            raise InputError("algebra needs at least one element")
        if len(set(elements)) != n:
            raise InputError("element labels must be unique")
        if not 0 <= zero < n:
            raise InputError(f"zero index {zero} out of range")
        if unit is not None:
            if not 0 <= unit < n:
                raise InputError(f"unit index {unit} out of range")
            if unit == zero and n > 1:
                raise InputError("unit must differ from zero")
        rows = [[-1] * (n + 1) for _ in range(n + 1)]
        for (i, j), k in sums.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError(f"sum entry ({i},{j})->{k} out of range")
            rows[i][j] = k
        # Read off row by row, so every walk of sums.items() is in key order.
        sums = {(i, j): k for i, row in enumerate(rows) for j, k in enumerate(row) if k >= 0}
        return super().__new__(cls, elements, zero, sums, unit, rows)

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild rows from sums
        return self[:4]

    @property
    def n(self) -> int:
        return len(self.elements)


class Violation(NamedTuple):
    axiom: str
    witness: tuple[int, ...]
    message: str


class AxiomReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _two_sided(table: AlgebraTable) -> list[Violation]:
    """Commutativity with definedness both ways: (i,j) defined forces (j,i)
    defined with the same value.  Only a row that differs from its column
    is walked."""
    out = []
    lab = table.elements
    for i, (row, col) in enumerate(zip(table.rows, zip(*table.rows))):
        if row == list(col):
            continue
        for j, (k, mirror) in enumerate(zip(row, col)):
            if k < 0 or k == mirror:
                continue
            if mirror < 0:
                out.append(Violation("GE1", (i, j),
                                     f"{lab[i]}+{lab[j]}={lab[k]} defined but {lab[j]}+{lab[i]} is not"))
            else:
                out.append(Violation("GE1", (i, j),
                                     f"{lab[i]}+{lab[j]}={lab[k]} but {lab[j]}+{lab[i]}={lab[mirror]}"))
    return out


def _associativity(table: AlgebraTable) -> list[Violation]:
    """(x+y)+z = x+(y+z) whenever one side is defined.  A defined side paired
    with an undefined one counts as a violation (biconditional reading).

    Only triples with a defined side can fail, so no scan of all n^3 triples
    is needed.  One list holds the left side (x+y)+z of every triple whose
    left side is defined, read from the defined columns of each defined
    x+y, and another the right side sx[sy[z]] of the same triples, where
    the padding reads -1 through an undefined y+z.  When the lists are
    equal, every left-defined triple holds with both sides defined.  If
    there are then as many triples with a defined right side, one per
    defined y+z = w and defined x+w, none is defined on the right only and
    the axiom holds.  Otherwise both kinds of triples are walked for their
    violations.  These are sorted once, into the lexicographic order of the
    full scan, and only they get a message."""
    n, rows, lab = table.n, table.rows, table.elements
    cols: list[list[int]] = [[] for _ in range(n)]  # the defined columns of each row
    count = [0] * n  # count[w]: the defined sums y+z = w
    above = [0] * n  # above[w]: the defined sums x+w
    for (i, j), k in table.sums.items():
        cols[i].append(j)
        count[k] += 1
        above[j] += 1
    vals = [[row[j] for j in c] for row, c in zip(rows, cols)]
    left = [v for vx in vals for u in vx for v in vals[u]]
    right = [sx[rows[y][z]] for sx, cx in zip(rows, cols) for y in cx for z in cols[sx[y]]]
    if left == right and len(left) == sum(map(mul, count, above)):
        return []
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (y, z) by y+z
    for yz, w in table.sums.items():
        pairs[w].append(yz)
    bad: list[tuple[int, int, int, int, int]] = []  # x, y, z, left, right; -1 undefined
    for x, sx in enumerate(rows[:n]):
        for y in cols[x]:
            su, sy = rows[sx[y]], rows[y]
            bad += [(x, y, z, su[z], sx[sy[z]]) for z in cols[sx[y]] if su[z] != sx[sy[z]]]
        for w in cols[x]:
            bad += [(x, y, z, -1, sx[w]) for y, z in pairs[w] if rows[sx[y]][z] < 0]
    bad.sort()
    out = []
    for x, y, z, left, right in bad:
        if left < 0 or right < 0:
            side = "left" if right < 0 else "right"
            out.append(Violation("GE2", (x, y, z),
                                 f"only the {side} side of ({lab[x]}+{lab[y]})+{lab[z]} is defined"))
        else:
            out.append(Violation("GE2", (x, y, z),
                                 f"({lab[x]}+{lab[y]})+{lab[z]}={lab[left]} but "
                                 f"{lab[x]}+({lab[y]}+{lab[z]})={lab[right]}"))
    return out


def _cancellation(table: AlgebraTable) -> list[Violation]:
    """x+y = x+y' forces y = y'.  A row whose defined values are distinct,
    which set() tells at once (every row holds a -1 in its padding), is not
    walked."""
    out = []
    lab = table.elements
    n = table.n
    for x, row in enumerate(table.rows):
        if len(set(row)) + row.count(-1) == n + 2:
            continue
        by_result: dict[int, int] = {}
        for y, k in enumerate(row):
            if k < 0:
                continue
            if k in by_result:
                out.append(Violation("GE3", (x, by_result[k], y),
                                     f"{lab[x]}+{lab[by_result[k]]} = {lab[x]}+{lab[y]} = {lab[k]}"))
            else:
                by_result[k] = y
    return out


def check_gea_axioms(table: AlgebraTable) -> AxiomReport:
    """Exhaustively verify the generalized effect algebra axioms GE1..GE5."""
    violations: list[Violation] = []
    lab = table.elements
    zero = table.zero
    violations += _two_sided(table)
    violations += _associativity(table)
    violations += _cancellation(table)
    for i, row in enumerate(table.rows):
        if zero not in row:
            continue
        for j, k in enumerate(row):
            if k == zero and not (i == zero and j == zero):
                violations.append(Violation("GE4", (i, j),
                                            f"{lab[i]}+{lab[j]}={lab[k]} sums to zero"))
    for x, k in enumerate(table.rows[zero][:table.n]):
        if k < 0:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]} is undefined"))
        elif k != x:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]}={lab[k]}, expected {lab[x]}"))
    return AxiomReport(tuple(violations))


def check_ea_axioms(table: AlgebraTable, gea: AxiomReport) -> AxiomReport:
    """Exhaustively verify the effect algebra axioms E1..E4.

    E1 and E2 are GE1 and GE2 under another label, so their violations are
    read from the GEA scan: gea must be check_gea_axioms(table).

    Requires a unit element; raises InputError without one.
    """
    if table.unit is None:
        raise InputError("effect algebra check needs a unit element")
    one = table.unit
    lab = table.elements
    label = {"GE1": "E1", "GE2": "E2"}
    violations = [Violation(label[v.axiom], v.witness, v.message)
                  for v in gea.violations if v.axiom in label]
    for x, row in enumerate(table.rows[:table.n]):
        found = row.count(one)
        if found == 0:
            violations.append(Violation("E3", (x,), f"{lab[x]} has no complement"))
        elif found > 1:
            complements = [y for y, k in enumerate(row) if k == one]
            violations.append(Violation("E3", (x, *complements),
                                        f"{lab[x]} has several complements"))
    for x, k in enumerate(table.rows[one][:table.n]):
        if k >= 0 and x != table.zero:
            violations.append(Violation("E4", (x,), f"1+{lab[x]} is defined for nonzero {lab[x]}"))
    return AxiomReport(tuple(violations))


class OrderRelation(NamedTuple):
    """The order induced by the sum table: x <= y iff x + z = y for some z.

    above[a] is an int bit mask whose bit b is set when a <= b.  The
    difference y - x, that z, is read from the table's sums: it is unique
    by cancellation on any table that passed the GEA check.
    """

    above: tuple[int, ...]

    def not_above(self) -> list[int]:
        """Per element a, the mask of the b with a not below b."""
        full = (1 << len(self.above)) - 1
        return [full ^ mask for mask in self.above]


def induced_order(table: AlgebraTable) -> OrderRelation:
    """The induced partial order: x_i <= x_j for each defined x_i + x_k = x_j.

    It is a partial order only on a table that passed the GEA scan; scan_gea
    and require_gea build it once after the scan, and the pipeline reads it
    from their CheckedGEA.
    """
    above = [0] * table.n
    for (i, _), j in table.sums.items():  # x_i + x_k = x_j, so x_i <= x_j
        above[i] |= 1 << j
    return OrderRelation(tuple(above))


class CheckedGEA(NamedTuple):
    """A table that passed the GEA axiom scan, with its induced order.

    scan_gea and require_gea make it.  The witness searches, the
    representation and the morphism classifier take one, so a pipeline scans
    its table once.
    """

    table: AlgebraTable
    order: OrderRelation


def scan_gea(table: AlgebraTable) -> tuple[AxiomReport, Optional[CheckedGEA]]:
    """One GEA axiom scan; on a pass, also the table with its induced order."""
    report = check_gea_axioms(table)
    return report, CheckedGEA(table, induced_order(table)) if report.passed else None


def require_gea(table: AlgebraTable) -> CheckedGEA:
    """The checked table; ContractError unless it satisfies the GEA axioms."""
    report, checked = scan_gea(table)
    if checked is None:
        first = report.violations[0]
        raise ContractError(f"table is not a generalized effect algebra: "
                            f"{first.axiom} fails ({first.message})")
    return checked


def is_sub_gea(subset: Sequence[int], table: AlgebraTable) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Two-out-of-three closure test for a sub-generalized-effect-algebra.

    Returns (True, None) when the subset contains zero and every defined sum
    with at least two members inside stays inside; otherwise (False, triple)
    with the first violating (x, y, z).
    """
    members = set(subset)
    for i in members:
        if not 0 <= i < table.n:
            raise InputError(f"subset index {i} out of range")
    if table.zero not in members:
        return False, None
    for (x, y), z in table.sums.items():
        inside = (x in members) + (y in members) + (z in members)
        if inside >= 2 and inside < 3:
            return False, (x, y, z)
    return True, None


class MorphismSpec(namedtuple("MorphismSpec", "source target map")):
    """A total map, source index -> target index, between two checked tables."""

    __slots__ = ()

    def __new__(cls, source: CheckedGEA, target: CheckedGEA, map: tuple[int, ...]) -> MorphismSpec:
        if len(map) != source.table.n:
            raise InputError("morphism map must be total on the source")
        for image in map:
            if not 0 <= image < target.table.n:
                raise InputError(f"image index {image} out of range")
        return super().__new__(cls, source, target, map)


class MorphismReport(NamedTuple):
    is_morphism: bool
    injective: bool
    order_reflecting: bool
    embedding: bool
    failure: Optional[tuple[int, ...]] = None


def classify_morphism(spec: MorphismSpec) -> MorphismReport:
    """Classify a total map between two checked tables.

    Flags: additivity on defined sums, injectivity, order reflection
    (f(a) <= f(b) forces a <= b) and embedding (injective morphism whose
    image is closed under the two-out-of-three rule).
    """
    f = spec.map
    src, tgt = spec.source.table, spec.target.table

    rows = tgt.rows
    failure: Optional[tuple[int, ...]] = next(
        ((a, b, c) for (a, b), c in src.sums.items() if rows[f[a]][f[b]] != f[c]), None)
    is_morphism = failure is None

    injective = len(set(f)) == len(f)

    # a <= a always holds, so only the pairs with a not below b can fail.
    above = spec.target.order.above
    breach = next(((a, b) for a, mask in enumerate(spec.source.order.not_above())
                   for b in range(src.n) if mask >> b & 1 and above[f[a]] >> f[b] & 1), None)
    order_reflecting = breach is None
    if failure is None:
        failure = breach

    image = sorted(set(f))
    closed, _ = is_sub_gea(image, tgt)
    embedding = is_morphism and injective and closed

    # Embeddings reflect order and order reflection forces injectivity; a
    # breach here means the classifier itself is inconsistent.
    if embedding and not order_reflecting:
        raise AssertionError("embedding that does not reflect order")
    if order_reflecting and not injective:
        raise AssertionError("order reflecting but not injective")
    return MorphismReport(is_morphism, injective, order_reflecting, embedding, failure)
