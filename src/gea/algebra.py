"""Finite partial algebras given as explicit sum tables.

The table stores a partial binary operation x + y on indexed elements.  All
checks are exhaustive scans; the associativity scan costs defined pairs × row
length, since only triples with a defined side can fail.

A pipeline runs the GEA scan once: scan_gea and require_gea return a
CheckedGEA, the table with its induced order, and the later stages
(witness searches, representation, morphism classifier) take that value
instead of scanning again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .errors import ContractError, InputError

GEA_AXIOMS = ("GE1", "GE2", "GE3", "GE4", "GE5")
EA_AXIOMS = ("E1", "E2", "E3", "E4")


@dataclass(frozen=True)
class AlgebraTable:
    """A finite partial algebra: labelled elements, a zero, an optional unit,
    and a partial sum table mapping index pairs to the index of their sum.

    Both (i, j) and (j, i) must be present in the table for a commutative sum;
    the checker reports one-sided entries instead of symmetrizing silently.
    """

    elements: tuple[str, ...]
    zero: int
    sums: Mapping[tuple[int, int], int]
    unit: Optional[int] = None

    def __post_init__(self) -> None:
        n = len(self.elements)
        if n < 1:
            raise InputError("algebra needs at least one element")
        if len(set(self.elements)) != n:
            raise InputError("element labels must be unique")
        if not 0 <= self.zero < n:
            raise InputError(f"zero index {self.zero} out of range")
        if self.unit is not None:
            if not 0 <= self.unit < n:
                raise InputError(f"unit index {self.unit} out of range")
            if self.unit == self.zero and n > 1:
                raise InputError("unit must differ from zero")
        for (i, j), k in self.sums.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError(f"sum entry ({i},{j})->{k} out of range")
        # Sorted once here, so defined_sums() walks the dict in key order.
        object.__setattr__(self, "sums", dict(sorted(self.sums.items())))

    @property
    def n(self) -> int:
        return len(self.elements)

    def sum_of(self, i: int, j: int) -> Optional[int]:
        """Index of x_i + x_j, or None when the sum is undefined."""
        return self.sums.get((i, j))

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise InputError(f"unknown element label {label!r}") from None

    def defined_sums(self) -> Iterator[tuple[int, int, int]]:
        """All defined triples (i, j, k) with x_i + x_j = x_k, sorted."""
        for (i, j), k in self.sums.items():
            yield i, j, k


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class AxiomReport:
    kind: str  # "GEA" or "EA"
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def witnesses(self, axiom: str) -> list[tuple[int, ...]]:
        return [v.witness for v in self.violations if v.axiom == axiom]

    def failed_axioms(self) -> list[str]:
        seen: list[str] = []
        for v in self.violations:
            if v.axiom not in seen:
                seen.append(v.axiom)
        return seen


def _two_sided(table: AlgebraTable) -> list[Violation]:
    """Commutativity with definedness both ways: (i,j) defined forces (j,i)
    defined with the same value."""
    out = []
    for i, j, k in table.defined_sums():
        mirror = table.sum_of(j, i)
        lab = table.elements
        if mirror is None:
            out.append(Violation("GE1", (i, j),
                                 f"{lab[i]}+{lab[j]}={lab[k]} defined but {lab[j]}+{lab[i]} is not"))
        elif mirror != k:
            out.append(Violation("GE1", (i, j),
                                 f"{lab[i]}+{lab[j]}={lab[k]} but {lab[j]}+{lab[i]}={lab[mirror]}"))
    return out


def _associativity(table: AlgebraTable) -> list[Violation]:
    """(x+y)+z = x+(y+z) whenever one side is defined.  A defined side paired
    with an undefined one counts as a violation (biconditional reading).

    Only triples with a defined side can fail, so two passes over the defined
    sums replace the scan of all n^3 triples: the first walks z along the row
    of each defined x+y (left side defined), the second walks x along the
    column of each defined y+z and keeps the triples whose left side is
    undefined.  Sorting by witness restores the lexicographic order of the
    full scan.  Keys are index pairs, so a lookup through an undefined sum,
    (x, None), finds nothing."""
    out = []
    lab = table.elements
    sums = table.sums
    rows: dict[int, list[tuple[int, int]]] = {}
    cols: dict[int, list[int]] = {}
    for (i, j), k in sums.items():
        rows.setdefault(i, []).append((j, k))
        cols.setdefault(j, []).append(i)
    for (x, y), xy in sums.items():
        for z, left in rows.get(xy, ()):
            right = sums.get((x, sums.get((y, z))))
            if right is None:
                out.append(Violation("GE2", (x, y, z),
                                     f"only the left side of ({lab[x]}+{lab[y]})+{lab[z]} is defined"))
            elif left != right:
                out.append(Violation("GE2", (x, y, z),
                                     f"({lab[x]}+{lab[y]})+{lab[z]}={lab[left]} but "
                                     f"{lab[x]}+({lab[y]}+{lab[z]})={lab[right]}"))
    for (y, z), yz in sums.items():
        for x in cols.get(yz, ()):
            if (sums.get((x, y)), z) not in sums:
                out.append(Violation("GE2", (x, y, z),
                                     f"only the right side of ({lab[x]}+{lab[y]})+{lab[z]} is defined"))
    out.sort(key=lambda v: v.witness)
    return out


def _cancellation(table: AlgebraTable) -> list[Violation]:
    out = []
    lab = table.elements
    for x in range(table.n):
        by_result: dict[int, int] = {}
        for y in range(table.n):
            k = table.sum_of(x, y)
            if k is None:
                continue
            if k in by_result and by_result[k] != y:
                out.append(Violation("GE3", (x, by_result[k], y),
                                     f"{lab[x]}+{lab[by_result[k]]} = {lab[x]}+{lab[y]} = {lab[k]}"))
            else:
                by_result.setdefault(k, y)
    return out


def check_gea_axioms(table: AlgebraTable) -> AxiomReport:
    """Exhaustively verify the generalized effect algebra axioms GE1..GE5."""
    violations: list[Violation] = []
    lab = table.elements
    violations += _two_sided(table)
    violations += _associativity(table)
    violations += _cancellation(table)
    for i, j, k in table.defined_sums():
        if k == table.zero and not (i == table.zero and j == table.zero):
            violations.append(Violation("GE4", (i, j),
                                        f"{lab[i]}+{lab[j]}={lab[k]} sums to zero"))
    for x in range(table.n):
        k = table.sum_of(table.zero, x)
        if k is None:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]} is undefined"))
        elif k != x:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]}={lab[k]}, expected {lab[x]}"))
    return AxiomReport("GEA", tuple(violations))


def check_ea_axioms(table: AlgebraTable, gea: Optional[AxiomReport] = None) -> AxiomReport:
    """Exhaustively verify the effect algebra axioms E1..E4.

    E1 and E2 are GE1 and GE2 under another label, so their violations are
    read from the GEA scan: gea, which must be check_gea_axioms(table) when
    the caller has it, or a scan made here.

    Requires a unit element; raises InputError without one.
    """
    if table.unit is None:
        raise InputError("effect algebra check needs a unit element")
    if gea is None:
        gea = check_gea_axioms(table)
    one = table.unit
    lab = table.elements
    label = {"GE1": "E1", "GE2": "E2"}
    violations = [Violation(label[v.axiom], v.witness, v.message)
                  for v in gea.violations if v.axiom in label]
    for x in range(table.n):
        complements = [y for y in range(table.n) if table.sum_of(x, y) == one]
        if len(complements) == 0:
            violations.append(Violation("E3", (x,), f"{lab[x]} has no complement"))
        elif len(complements) > 1:
            violations.append(Violation("E3", (x, *complements),
                                        f"{lab[x]} has several complements"))
    for x in range(table.n):
        if table.sum_of(one, x) is not None and x != table.zero:
            violations.append(Violation("E4", (x,), f"1+{lab[x]} is defined for nonzero {lab[x]}"))
    return AxiomReport("EA", tuple(violations))


@dataclass(frozen=True)
class OrderRelation:
    """The order induced by the sum table: x <= y iff x + z = y for some z.

    diff[(j, i)] = k records that z, i.e. x_j - x_i = x_k; it is unique by
    cancellation on any table that passed the GEA check.
    """

    n: int
    leq_matrix: tuple[tuple[bool, ...], ...]
    diff: Mapping[tuple[int, int], int]

    def leq(self, i: int, j: int) -> bool:
        return self.leq_matrix[i][j]

    def pairs_not_leq(self) -> list[tuple[int, int]]:
        """Ordered pairs (a, b), a != b, with a not below b, lexicographic."""
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if a != b and not self.leq_matrix[a][b]]


def induced_order(table: AlgebraTable) -> OrderRelation:
    """Compute the induced partial order and the difference map.

    The difference map is well defined only on a table that passed the GEA
    scan; scan_gea and require_gea build the order once after the scan, and
    the pipeline reads it from their CheckedGEA.
    """
    n = table.n
    leq = [[False] * n for _ in range(n)]
    diff: dict[tuple[int, int], int] = {}
    for i, k, j in table.defined_sums():  # x_i + x_k = x_j, so x_i <= x_j
        leq[i][j] = True
        diff[(j, i)] = k
    matrix = tuple(tuple(row) for row in leq)
    return OrderRelation(n, matrix, diff)


@dataclass(frozen=True)
class CheckedGEA:
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
    for x, y, z in table.defined_sums():
        inside = (x in members) + (y in members) + (z in members)
        if inside >= 2 and inside < 3:
            return False, (x, y, z)
    return True, None


@dataclass(frozen=True)
class MorphismSpec:
    source: CheckedGEA
    target: CheckedGEA
    map: tuple[int, ...]  # source index -> target index, total

    def __post_init__(self) -> None:
        if len(self.map) != self.source.table.n:
            raise InputError("morphism map must be total on the source")
        for image in self.map:
            if not 0 <= image < self.target.table.n:
                raise InputError(f"image index {image} out of range")


@dataclass(frozen=True)
class MorphismReport:
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

    is_morphism = True
    failure: Optional[tuple[int, ...]] = None
    for a, b, c in src.defined_sums():
        image_sum = tgt.sum_of(f[a], f[b])
        if image_sum is None or image_sum != f[c]:
            is_morphism = False
            failure = (a, b, c)
            break

    injective = len(set(f)) == len(f)

    order_src, order_tgt = spec.source.order, spec.target.order
    order_reflecting = True
    for a in range(src.n):
        for b in range(src.n):
            if order_tgt.leq(f[a], f[b]) and not order_src.leq(a, b):
                order_reflecting = False
                if failure is None:
                    failure = (a, b)
                break
        if not order_reflecting:
            break

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
