"""Finite partial algebras given as explicit sum tables.

The table stores a partial binary operation x + y on indexed elements.  An
AlgebraTable holds it once, as padded rows with each row's defined columns:
rows[i][j] is the index of x_i + x_j, or -1 when the sum is undefined, and
the last row and column are -1 padding, so a lookup through an undefined
sum, rows[-1][j], reads -1 too.  Every walk of the sums goes by row,
columns ascending.  The GEA scan reads each row's defined values once and
decides GE3, GE4 and GE5 from them and from how often each value is a sum,
so their cost follows the defined sums; only a failing test is walked for
its violations.  The associativity scan walks only the triples whose left
side is defined and counts the triples whose right side is defined, so its
cost follows the number of defined triples, not n^3.  Only the triples
whose first element is an atom (no sum of two nonzero elements) are
compared when the table is two-sided and Kahn's algorithm orders every
nonzero element along u -> u+v, v -> u+v (u, v, u+v nonzero): by induction
along that order, a non-atom x = u+v gives (x+y)+z = (u+(v+y))+z =
u+((v+y)+z) = u+(v+(y+z)) = (u+v)+(y+z) by the triples (u, v, y),
(u, v+y, z), (v, y, z) and (u, v, y+z), whose first elements come before x,
and an undefined v+y or y+z leaves both ends undefined.  Zero's triples
follow from their mirrors (see _associativity).  A GEA has no such cycle
(u < u+v).

A pipeline runs the GEA scan once: scan_gea and require_gea return a
CheckedGEA, the table with the masks of its induced order, its atoms and
its Kahn order, which the witness searches, the representation and the
morphism classifier take.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import chain
from operator import lshift
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ContractError, InputError


class AlgebraTable(namedtuple("AlgebraTable", "elements zero unit rows cols")):
    """A finite partial algebra: labelled elements, a zero, an optional unit,
    and a partial sum table given as (i, j, k) triples, one per defined
    x_i + x_j = x_k.

    Both (i, j) and (j, i) must be present in the table for a commutative sum;
    the checker reports one-sided entries instead of symmetrizing silently.

    rows is the table as (n + 1) x (n + 1) lists, -1 for an undefined sum
    and in the padding row and column, and cols[i] lists row i's defined
    columns in ascending order; neither may be changed.  sums is a view.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[str, ...], zero: int,
                sums: Iterable[tuple[int, int, int]],
                unit: Optional[int] = None) -> AlgebraTable:
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
        cols: list[list[int]] = [[] for _ in range(n)]
        for i, j, k in sums:  # read once; a triple given twice must agree
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError(f"sum entry ({i},{j})->{k} out of range")
            row = rows[i]
            if row[j] < 0:
                row[j] = k
                cols[i].append(j)
            elif row[j] != k:
                raise InputError(f"conflicting entries for {elements[i]}+{elements[j]}")
        for c in cols:
            c.sort()
        return super().__new__(cls, elements, zero, unit, rows, cols)

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild rows from the triples
        return self.elements, self.zero, tuple(self.triples()), self.unit

    @property
    def n(self) -> int:
        return len(self.elements)

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Each defined i + j = k as (i, j, k), by row, columns ascending."""
        for i, (row, c) in enumerate(zip(self.rows, self.cols)):
            for j in c:
                yield i, j, row[j]

    @property
    def sums(self) -> dict[tuple[int, int], int]:
        """The table as a {(i, j): k} dict in key order, made on each read."""
        return {(i, j): k for i, j, k in self.triples()}


class Violation(namedtuple("Violation", "axiom witness message")):
    """One failed axiom: its name (str), the element indices that break it
    (tuple[int, ...]) and a message naming their labels (str)."""

    __slots__ = ()


class AxiomReport(namedtuple("AxiomReport", "violations")):
    """The violations of one scan, a tuple[Violation, ...]."""

    __slots__ = ()

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


def _holds(xs: Sequence[int], rows: list[list[int]], cols: list[list[int]],
           vals: list[list[int]], count: list[int]) -> bool:
    """GE2 at every x in xs, for _associativity."""
    left = [v for x in xs for u in vals[x] for v in vals[u]]
    right = [sx[rows[y][w]] for sx, cx in ((rows[x], cols[x]) for x in xs)
             for y in cx for w in cols[sx[y]]]
    return left == right and len(left) == sum(count[w] for x in xs for w in cols[x])


def _associativity(table: AlgebraTable, two_sided: bool, vals: list[list[int]],
                   count: list[int]) -> tuple[list[Violation], list[int], list[int]]:
    """(x+y)+z = x+(y+z) whenever one side is defined (a defined side with an
    undefined one is a violation), and the atoms and Kahn's order, from
    vals[x], row x's defined values, and count[w], the defined sums y+z = w.

    For the x in xs, _holds lists the left side of every triple whose left
    side is defined, read from the defined columns of each x+y, and its
    right side sx[sy[z]], where the padding reads -1 through an undefined
    y+z.  Equal lists and as many triples with a defined right side, one
    per defined y+z = w and x+w, prove the axiom at each x.  One such pass
    decides the axiom: on the atoms when the table is two-sided and Kahn's
    order is complete, else on every x.  The atom triples are among all
    triples, so when that pass fails both kinds of triples are walked for
    their violations, sorted into the order of the full n^3 scan.

    Zero's triples need no pass of their own on a two-sided table, whatever
    its zero row: (0, y, z) is the mirror of (z, y, 0), since (0+y)+z =
    z+(y+0) and 0+(y+z) = (z+y)+0, each side defined exactly when the other
    is, so it holds when (z, y, 0) does, a triple whose first element z is
    nonzero.  (0, y, 0) is its own mirror: with w = 0+y = y+0, its sides are
    w+0 and 0+w, equal or both undefined.  So once every triple with a
    nonzero first element holds, the atoms' directly and the rest by the
    induction in the module docstring, which uses no triple of zero, zero's
    triples hold too."""
    n, rows, cols, lab, zero = table.n, table.rows, table.cols, table.elements, table.zero
    # indegree[k]: the sums u+v = k of nonzero u, v, so every sum less the zero
    # row and column (slot n takes the padding's -1); zero is no successor.
    indegree = count + [0]
    for k in rows[zero] + [row[zero] for u, row in enumerate(rows) if u != zero]:
        indegree[k] -= 1
    indegree[zero] = -1
    atoms = [x for x in range(n) if not indegree[x]]
    order = atoms[:]
    if len(atoms) < n - 1:  # else every nonzero element is an atom, the order is atoms
        for u in order:  # Kahn's algorithm: order grows as it is walked
            p = bisect_left(cols[u], zero)  # u+0, at p when defined, is no edge
            ks = vals[u][:p] + vals[u][p + 1:] if cols[u][p:p + 1] == [zero] else vals[u]
            for k in ks:
                indegree[k] -= 1
                if not indegree[k]:
                    order.append(k)
    xs: Sequence[int] = atoms if two_sided and len(order) == n - 1 else range(n)
    if _holds(xs, rows, cols, vals, count):
        return [], atoms, order
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (y, z) by y+z
    for y, z, w in table.triples():
        pairs[w].append((y, z))
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
    return out, atoms, order


def _cancellation(table: AlgebraTable, vals: list[list[int]]) -> list[Violation]:
    """x+y = x+y' forces y = y'.  Only a row whose defined values vals[x]
    repeat, which set() tells at once, is walked."""
    out = []
    lab = table.elements
    for x, (c, v) in enumerate(zip(table.cols, vals)):
        if len(set(v)) == len(v):
            continue
        by_result: dict[int, int] = {}
        for y, k in zip(c, v):
            if k in by_result:
                out.append(Violation("GE3", (x, by_result[k], y),
                                     f"{lab[x]}+{lab[by_result[k]]} = {lab[x]}+{lab[y]} = {lab[k]}"))
            else:
                by_result[k] = y
    return out


def check_gea_axioms(table: AlgebraTable, kahn: bool = False
                     ) -> AxiomReport | tuple[AxiomReport, tuple[int, ...], tuple[int, ...]]:
    """Verify the generalized effect algebra axioms GE1..GE5 on every
    defined sum: the AxiomReport or, with kahn, (report, atoms, order), the
    scan's atoms and Kahn order, atoms first, which stops short at a cycle
    of sums."""
    violations: list[Violation] = []
    n, rows, cols, lab, zero = table.n, table.rows, table.cols, table.elements, table.zero
    vals = [list(map(row.__getitem__, c)) for row, c in zip(rows, cols)]
    count = [0] * n  # count[w]: the defined sums y+z = w
    for k in chain.from_iterable(vals):
        count[k] += 1
    identity = rows[zero][:n] == list(range(n))  # GE5
    violations += _two_sided(table)  # the atom pass needs no GE1 violation
    ge2, atoms, order = _associativity(table, not violations, vals, count)
    violations += ge2
    violations += _cancellation(table, vals)
    if count[zero] != (1 if rows[zero][zero] == zero else 0):  # only 0+0 may sum to zero
        for i, (c, v) in enumerate(zip(cols, vals)):
            for j, k in zip(c, v):
                if k == zero and not (i == zero and j == zero):
                    violations.append(Violation("GE4", (i, j),
                                                f"{lab[i]}+{lab[j]}={lab[k]} sums to zero"))
    if not identity:
        for x, k in enumerate(rows[zero][:n]):
            if k < 0:
                violations.append(Violation("GE5", (x,), f"0+{lab[x]} is undefined"))
            elif k != x:
                violations.append(Violation("GE5", (x,), f"0+{lab[x]}={lab[k]}, expected {lab[x]}"))
    report = AxiomReport(tuple(violations))
    return (report, tuple(atoms), tuple(order)) if kahn else report


def check_ea_axioms(table: AlgebraTable, gea: AxiomReport) -> AxiomReport:
    """Exhaustively verify the effect algebra axioms E1..E4 of a table with a
    unit (InputError without one).  E1 and E2 are GE1 and GE2 relabelled,
    read from gea, which must be check_gea_axioms(table)."""
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


def induced_order(table: AlgebraTable) -> tuple[int, ...]:
    """The order induced by the sum table, x_i <= x_j for each defined
    x_i + x_k = x_j, as one int mask per element: bit b of above[a] is set
    when a <= b.  A partial order on a table that passed the GEA scan, as in
    a CheckedGEA."""
    above = []
    for row, c in zip(table.rows, table.cols):
        mask = 0
        for k in c:  # x_i + x_k = x_j, so x_i <= x_j
            mask |= 1 << row[k]
        above.append(mask)
    return tuple(above)


def first_nonadditive(table: AlgebraTable,
                      lanes: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first defined i + j = k, in row order, on which some lane (one int
    per element) has lane[i] + lane[j] != lane[k], or None, in one pass for
    all lanes.  Element a's values are packed into one int, lane s at bit
    s*w, w two bits past the largest |value| M: each lane's defect d_s has
    |d_s| <= 3M < 2^w, so the packed defect is zero only if every d_s is
    (the lowest nonzero d_t leaves d_t * 2^(t*w) modulo 2^((t+1)*w))."""
    if not lanes:
        return None
    packed = lanes[0]  # one lane needs no packing
    if len(lanes) > 1:
        w = max(max(map(max, lanes)), -min(map(min, lanes))).bit_length() + 2
        shifts = range(0, w * len(lanes), w)
        packed = [sum(map(lshift, values, shifts)) for values in zip(*lanes)]
    for i, (row, c) in enumerate(zip(table.rows, table.cols)):
        p = packed[i]
        for j in c:
            if p + packed[j] != packed[row[j]]:
                return i, j, row[j]
    return None


class CheckedGEA(namedtuple("CheckedGEA", "table above atoms topological")):
    """A table (AlgebraTable) that passed the GEA axiom scan, with the masks
    of its induced order, above (tuple[int, ...], as induced_order gives
    them), and the scan's atoms and Kahn order (tuple[int, ...] each), as
    scan_gea and require_gea make it."""

    __slots__ = ()

    def not_above(self) -> list[int]:
        """Per element a, the mask of the b with a not below b."""
        full = (1 << len(self.above)) - 1
        return [full ^ mask for mask in self.above]


def scan_gea(table: AlgebraTable) -> tuple[AxiomReport, Optional[CheckedGEA]]:
    """One GEA axiom scan; on a pass, also the checked table."""
    report, atoms, order = check_gea_axioms(table, kahn=True)
    return report, (CheckedGEA(table, induced_order(table), atoms, order)
                    if report.passed else None)


def require_gea(table: AlgebraTable) -> CheckedGEA:
    """The checked table; ContractError unless it satisfies the GEA axioms."""
    report, checked = scan_gea(table)
    if checked is None:
        first = report.violations[0]
        raise ContractError(f"table is not a generalized effect algebra: "
                            f"{first.axiom} fails ({first.message})")
    return checked


def is_sub_gea(subset: Sequence[int], table: AlgebraTable) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Two-out-of-three closure test for a sub-generalized-effect-algebra:
    (True, None) when the subset holds zero and each defined sum with two
    members inside stays inside, else False and the first such (x, y, z)."""
    members = set(subset)
    for i in members:
        if not 0 <= i < table.n:
            raise InputError(f"subset index {i} out of range")
    if table.zero not in members:
        return False, None
    for x, (row, c) in enumerate(zip(table.rows, table.cols)):
        for y in c:
            if (x in members) + (y in members) + (row[y] in members) == 2:
                return False, (x, y, row[y])
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


class MorphismReport(namedtuple("MorphismReport",
                                 "is_morphism injective order_reflecting embedding failure",
                                 defaults=(None,))):
    """The four verdicts of classify_morphism (bool each) and its failure
    (Optional[tuple[int, ...]]): the first sum that breaks additivity, else
    the first pair that breaks order reflection, else None."""

    __slots__ = ()


def classify_morphism(spec: MorphismSpec) -> MorphismReport:
    """Classify a total map between two checked tables: additivity on
    defined sums, injectivity, order reflection (f(a) <= f(b) forces a <= b)
    and embedding (injective morphism whose image is two-out-of-three closed)."""
    f = spec.map
    src, tgt = spec.source.table, spec.target.table

    rows = tgt.rows
    failure: Optional[tuple[int, ...]] = next(
        ((a, b, row[b]) for a, (row, c) in enumerate(zip(src.rows, src.cols))
         for b in c if rows[f[a]][f[b]] != f[row[b]]), None)
    is_morphism = failure is None

    injective = len(set(f)) == len(f)

    # a <= a always holds, so only the pairs with a not below b can fail.
    above = spec.target.above
    breach = next(((a, b) for a, mask in enumerate(spec.source.not_above())
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
