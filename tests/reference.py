"""References the tests compare the program against: the axiom scans and
the induced order as a walk over the defined sums, with the atoms and a
queue-driven Kahn order, for `check_gea_axioms`,
`check_ea_axioms` and `induced_order`, with `leq` and `pairs_not_leq` to
read an order's masks pair by pair; the morphism classifier with its
nested order loop, for `classify_morphism`; Fraction rational vectors over the
witness slots, for positivity, the norm bounds and criterion 5, with a
representation's diagonals and a state's values as Fractions,
`fraction_operators` and `fraction_values`, and the states read back off a
representation's slots, `reference_extract_states`, for criterion 2; a
brute-force LP oracle with the witness LPs of a table to run it on, for
`lp_feasible` and criterion 6, `satisfies` to recheck a Fraction point,
`reference_refutes` to recheck the Farkas weights that prove an LP has no
solution, from the combination `reference_combination` forms, with
`checked_proofs` to run it on every None of `lp_feasible`, `refutations`
to record what `refuted_by` reads and `conflict_weights` to read the
weights of a program's conflict row,
`x0_phase_one`, the auxiliary-variable phase one whose points the witness
searches' LPs keep, and a converter each way between rows of one
coefficient per variable and a LinearProgram's sparse rows; the LP over
one variable per nonzero element and one additivity row per defined sum,
with its states and its searches,
for the atom program of `additivity_program`; the per-pair coverage walk
`reference_assign_witnesses`, with `reference_walk` to run it over a goal's
pairs, for the masks of the witness searches, with the per-sum walks
`reference_validate`, the generalized-state check, and
`reference_first_nonadditive` for the packed additivity pass of
`first_nonadditive`; the per-pair effect table, one `np.allclose` per candidate
label, `reference_table_from_effects`, for `effects.table_from_effects`, with
its checked spectrum of one matrix by `eigvalsh`, `reference_eigenvalues`,
for `effects.spectral_flags`; the argparse parser the command line was read with,
`reference_parser`, for `cli.parse`; and fixtures: `write_table` and `write_matrix` write
the files the loaders read, `down_set_table` builds a down-set of N^m,
`product` the direct product of tables and `glued` glues two tables at zero,
`random_positive_matrix` and `random_vector` draw seeded complex data,
`state_of` makes the state with given rational values, `triples` turns a
{(i, j): k} dict into the triples AlgebraTable takes,
`axiom_witnesses` lists the witnesses of one axiom in a report, and
`assert_witness_set` recomputes a search's coverage from its states."""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np

from gea import lp, states
from gea.algebra import (AlgebraTable, AxiomReport, MorphismReport, MorphismSpec, Violation,
                         induced_order, require_gea)
from gea.cli import (cmd_check, cmd_effects_check, cmd_effects_demo, cmd_effects_witness,
                     cmd_morphism, cmd_order, cmd_represent, cmd_states)
from gea.effects import PSD_TOL, EffectMatrix
from gea.errors import InputError
from gea.lp import LinearProgram, lp_feasible
from gea.represent import DiagonalRep
from gea.states import GeneralizedState, StateWitnessSet, _difference, additivity_program


def reference_two_sided(table: AlgebraTable) -> list[Violation]:
    """GE1 over the defined sums: (i,j) defined forces (j,i) defined with
    the same value."""
    out = []
    lab = table.elements
    for (i, j), k in table.sums.items():
        mirror = table.sums.get((j, i))
        if mirror is None:
            out.append(Violation("GE1", (i, j),
                                 f"{lab[i]}+{lab[j]}={lab[k]} defined but {lab[j]}+{lab[i]} is not"))
        elif mirror != k:
            out.append(Violation("GE1", (i, j),
                                 f"{lab[i]}+{lab[j]}={lab[k]} but {lab[j]}+{lab[i]}={lab[mirror]}"))
    return out


def reference_associativity(table: AlgebraTable) -> list[Violation]:
    """GE2 over the defined sums: one pass walks z along the row of each
    defined x+y (left side defined), the other walks x along the column of
    each defined y+z and keeps the triples whose left side is undefined;
    sorting by witness gives the lexicographic order of the n^3 scan.  Keys
    are index pairs, so a lookup through an undefined sum, (x, None), finds
    nothing."""
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


def reference_cancellation(table: AlgebraTable) -> list[Violation]:
    """GE3: x+y = x+y' forces y = y', row by row through sums.get."""
    out = []
    lab = table.elements
    for x in range(table.n):
        by_result: dict[int, int] = {}
        for y in range(table.n):
            k = table.sums.get((x, y))
            if k is None:
                continue
            if k in by_result and by_result[k] != y:
                out.append(Violation("GE3", (x, by_result[k], y),
                                     f"{lab[x]}+{lab[by_result[k]]} = {lab[x]}+{lab[y]} = {lab[k]}"))
            else:
                by_result.setdefault(k, y)
    return out


def reference_kahn(table: AlgebraTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The atoms and Kahn's order of the nonzero elements: a queue that
    starts with the atoms, the nonzero elements that are no sum u + v of
    nonzero u and v, in index order, and takes in each k once every sum
    u + v = k of nonzero u, v, k has left the queue at u, in key order.  On
    a cycle the order stops short."""
    succ: dict[int, list[int]] = {x: [] for x in range(table.n)}
    indegree = dict.fromkeys(range(table.n), 0)
    for (u, v), k in table.sums.items():
        if table.zero not in (u, v, k):
            succ[u].append(k)
            indegree[k] += 1
    atoms = tuple(x for x in range(table.n) if x != table.zero and indegree[x] == 0)
    queue, order = deque(atoms), []
    while queue:
        u = queue.popleft()
        order.append(u)
        for k in succ[u]:
            indegree[k] -= 1
            if indegree[k] == 0:
                queue.append(k)
    return atoms, tuple(order)


def reference_gea_axioms(table: AlgebraTable) -> AxiomReport:
    """GE1..GE5 as a walk over the defined sums and sums.get lookups."""
    violations: list[Violation] = []
    lab = table.elements
    violations += reference_two_sided(table)
    violations += reference_associativity(table)
    violations += reference_cancellation(table)
    for (i, j), k in table.sums.items():
        if k == table.zero and not (i == table.zero and j == table.zero):
            violations.append(Violation("GE4", (i, j),
                                        f"{lab[i]}+{lab[j]}={lab[k]} sums to zero"))
    for x in range(table.n):
        k = table.sums.get((table.zero, x))
        if k is None:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]} is undefined"))
        elif k != x:
            violations.append(Violation("GE5", (x,), f"0+{lab[x]}={lab[k]}, expected {lab[x]}"))
    return AxiomReport(tuple(violations))


def reference_ea_axioms(table: AlgebraTable) -> AxiomReport:
    """E1..E4: E1 and E2 relabel GE1 and GE2, E3 and E4 walk sums.get."""
    if table.unit is None:
        raise InputError("effect algebra check needs a unit element")
    one = table.unit
    lab = table.elements
    label = {"GE1": "E1", "GE2": "E2"}
    violations = [Violation(label[v.axiom], v.witness, v.message)
                  for v in reference_gea_axioms(table).violations if v.axiom in label]
    for x in range(table.n):
        complements = [y for y in range(table.n) if table.sums.get((x, y)) == one]
        if len(complements) == 0:
            violations.append(Violation("E3", (x,), f"{lab[x]} has no complement"))
        elif len(complements) > 1:
            violations.append(Violation("E3", (x, *complements),
                                        f"{lab[x]} has several complements"))
    for x in range(table.n):
        if table.sums.get((one, x)) is not None and x != table.zero:
            violations.append(Violation("E4", (x,), f"1+{lab[x]} is defined for nonzero {lab[x]}"))
    return AxiomReport(tuple(violations))


def reference_induced_order(table: AlgebraTable) -> tuple[int, ...]:
    """x_i <= x_j for each defined x_i + x_k = x_j, as a bool matrix read
    into one mask per row."""
    n = table.n
    leq = [[False] * n for _ in range(n)]
    for (i, _), j in table.sums.items():
        leq[i][j] = True
    return tuple(sum(1 << j for j in range(n) if row[j]) for row in leq)


def leq(above: tuple[int, ...], a: int, b: int) -> bool:
    """a <= b in the order with masks above."""
    return bool(above[a] >> b & 1)


def pairs_not_leq(above: tuple[int, ...]) -> list[tuple[int, int]]:
    """Ordered pairs (a, b), a != b, with a not below b, lexicographic."""
    n = len(above)
    return [(a, b) for a in range(n) for b in range(n) if a != b and not leq(above, a, b)]


def reference_classify_morphism(spec: MorphismSpec) -> MorphismReport:
    """classify_morphism as a walk over the defined sums through sums.get
    and a nested loop over all n^2 pairs for order reflection.  Its
    embedding is the textbook one, not the program's expression: an
    injective morphism onto a two-out-of-three closed image whose inverse
    is additive, f(a) + f(b) defined only when a + b is."""
    f = spec.map
    src, tgt = spec.source.table, spec.target.table

    is_morphism = True
    failure: Optional[tuple[int, ...]] = None
    for (a, b), c in src.sums.items():
        image_sum = tgt.sums.get((f[a], f[b]))
        if image_sum is None or image_sum != f[c]:
            is_morphism = False
            failure = (a, b, c)
            break

    injective = len(set(f)) == len(f)

    order_src, order_tgt = spec.source.above, spec.target.above
    order_reflecting = True
    for a in range(src.n):
        for b in range(src.n):
            if leq(order_tgt, f[a], f[b]) and not leq(order_src, a, b):
                order_reflecting = False
                if failure is None:
                    failure = (a, b)
                break
        if not order_reflecting:
            break

    image = set(f)
    closed = tgt.zero in image and all((x in image) + (y in image) + (z in image) != 2
                                       for (x, y), z in tgt.sums.items())
    inverse_additive = all((a, b) in src.sums for a in range(src.n) for b in range(src.n)
                           if (f[a], f[b]) in tgt.sums)
    embedding = is_morphism and injective and closed and inverse_additive
    return MorphismReport(is_morphism, injective, order_reflecting, embedding, failure)


@dataclass(frozen=True)
class FiniteVector:
    """Finitely supported rational vector over the witness slots."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.coords), Fraction(0))

    @staticmethod
    def basis(m: int, slot: int) -> "FiniteVector":
        return FiniteVector(tuple(Fraction(1 if i == slot else 0) for i in range(m)))


def random_rational_vector(rng: random.Random, m: int) -> FiniteVector:
    """Seeded sample vector: coordinates p/q with q <= 4 and value in [-5, 5]."""
    coords = []
    for _ in range(m):
        q = rng.randint(1, 4)
        p = rng.randint(-5 * q, 5 * q)
        coords.append(Fraction(p, q))
    return FiniteVector(tuple(coords))


def apply_operator(rep: DiagonalRep, a: int, x: FiniteVector) -> FiniteVector:
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return FiniteVector(tuple(Fraction(e, rep.den) * c
                              for e, c in zip(rep.diagonals[a], x.coords)))


def vector_state(rep: DiagonalRep, x: FiniteVector, a: int) -> Fraction:
    """The value <x, phi(a) x> = sum of entry * coordinate^2, exactly.

    Complex coordinates would contribute only their squared moduli here, so
    rational coordinates lose no generality."""
    if len(x) != rep.m:
        raise InputError(f"vector length {len(x)} does not match {rep.m} slots")
    return sum((Fraction(e, rep.den) * c * c for e, c in zip(rep.diagonals[a], x.coords)),
               Fraction(0))


def fraction_operators(rep: DiagonalRep) -> tuple[tuple[Fraction, ...], ...]:
    """Every diagonal phi(a) as Fractions."""
    return tuple(tuple(Fraction(p, rep.den) for p in diagonal) for diagonal in rep.diagonals)


def reference_extract_states(rep: DiagonalRep) -> list[GeneralizedState]:
    """One state per slot s, a -> <e_s, phi(a) e_s>: slot by slot the states
    the representation was built from."""
    return [state_of([vector_state(rep, FiniteVector.basis(rep.m, slot), a)
                      for a in range(len(rep.diagonals))]) for slot in range(rep.m)]


def bounded_by(rep: DiagonalRep, a: int, norm: Fraction, x: FiniteVector) -> bool:
    """Exact check of ||phi(a) x||^2 <= norm^2 ||x||^2 (squares avoid roots)."""
    return apply_operator(rep, a, x).norm_sq() <= norm * norm * x.norm_sq()


def sparse(rows):
    """Rows given as (coefficients, rhs), one coefficient per variable, as
    LinearProgram takes them: the nonzero (column, coefficient) pairs and
    the rhs."""
    return [(tuple((j, c) for j, c in enumerate(coeffs) if c), rhs) for coeffs, rhs in rows]


def dense(row, n_vars):
    """A {column: coefficient} row of a LinearProgram, with its rhs at
    column n_vars, as n_vars coefficients followed by the rhs."""
    return [row.get(j, 0) for j in range(n_vars + 1)]


def basic_solution_feasible(program: LinearProgram) -> Optional[list[Fraction]]:
    """Independent feasibility oracle: enumerate basic solutions.

    A feasible region of this shape is nonempty iff some choice of rank-many
    linearly independent columns solves the system with nonnegative values.
    Exponential in the variable count; intended for small cross-checks only.
    """
    n = program.n_vars
    if program.conflict is not None:
        return None
    if not program.pivots:
        return [Fraction(0)] * n
    rows = [(dense(dict(pairs), n)[:-1], rhs) for pairs, rhs in program.rows]
    for columns in itertools.combinations(range(n), len(program.pivots)):
        # These columns carry a basic solution iff each one becomes a pivot
        # and the restricted system stays consistent; it is then unique.
        restricted = LinearProgram(len(columns), sparse(
            [([coeffs[c] for c in columns], rhs) for coeffs, rhs in rows]))
        if restricted.conflict is not None or len(restricted.pivots) < len(columns):
            continue
        x = [Fraction(0)] * n
        for pivot, row in zip(restricted.pivots, restricted.reduced):
            x[columns[pivot]] = Fraction(dense(row, len(columns))[-1], row[pivot])
        if any(v < 0 for v in x):
            continue
        assert satisfies(program, x)
        return x
    return None


def satisfies(program: LinearProgram, x) -> bool:
    """program.satisfied_by at the rational point x, over the lcm of its
    denominators."""
    x = [Fraction(v) for v in x]
    den = lcm(*(v.denominator for v in x))
    return program.satisfied_by([v.numerator * (den // v.denominator) for v in x], den)


def reference_combination(program: LinearProgram, y: dict[int, int]):
    """yᵀA, one Fraction per column, and yᵀb, for the row weights y (row
    index -> weight), over program's dense rows."""
    n = program.n_vars
    combo = [Fraction(0)] * (n + 1)
    for i, w in y.items():
        pairs, rhs = program.rows[i]
        for j, c in enumerate(dense(dict(pairs), n)[:-1] + [rhs]):
            combo[j] += w * c
    *coeffs, b = combo
    return coeffs, b


def conflict_weights(program: LinearProgram) -> dict[int, int]:
    """The weights on program's rows (row index -> weight) of the row that
    reduced to 0 = c, program.conflict."""
    return lp._weights(program.conflict, program.n_vars)


def reference_refutes(program: LinearProgram, y: dict[int, int]) -> bool:
    """Whether the row weights y (row index -> weight) prove that program
    has no solution, over its dense rows in Fractions, as a Farkas
    certificate: yᵀA >= 0 at every column and yᵀb < 0."""
    coeffs, b = reference_combination(program, y)
    return all(c >= 0 for c in coeffs) and b < 0


def refutations(monkeypatch) -> list:
    """The (program, y) of every refuted_by call made while it is live."""
    read: list[tuple[LinearProgram, dict[int, int]]] = []
    real = LinearProgram.refuted_by
    monkeypatch.setattr(LinearProgram, "refuted_by",
                        lambda self, y: read.append((self, y)) or real(self, y))
    return read


def checked_proofs(monkeypatch):
    """lp_feasible, bound in gea.states as well, with every None it returns
    checked by reference_refutes against the weights that its own recheck,
    refuted_by, read.  Returns that lp_feasible and a Counter of the proofs
    it checked: "exact" where yᵀA = 0, which is exactly where the program
    has a conflict, and "farkas" for the rest."""
    read = refutations(monkeypatch)
    proofs: Counter[str] = Counter()

    def checked(program: LinearProgram) -> Optional[list[Fraction]]:
        read.clear()
        x = lp_feasible(program)
        if x is None:
            ((recheck_of, y),) = read
            assert recheck_of is program
            assert all(type(w) is int for w in y.values())
            assert reference_refutes(program, y), (program, y)
            exact = not any(reference_combination(program, y)[0])
            assert exact == (program.conflict is not None), (program, y)
            proofs["exact" if exact else "farkas"] += 1
        else:
            assert not read
        return x

    monkeypatch.setattr(states, "lp_feasible", checked)
    return checked, proofs


def x0_phase_one(program: LinearProgram) -> Optional[list[Fraction]]:
    """The phase one that lp_feasible ran before its dual simplex, in
    Fractions, from the program's own echelon basis: an auxiliary variable
    x0 enters, with coefficient -1, every row whose rhs is negative, and
    pivots in at the row of least rhs; then Bland's rule minimizes x0 over
    the cost row, the tableau's last row, with ratio ties to the lowest
    basic variable.  The witness states, and the reports built on them,
    were recorded with this phase one, so lp_feasible must return its point
    on every LP a witness search runs."""
    if program.conflict is not None:
        return None
    n = program.n_vars
    basis = program.pivots[:]
    tableau = []
    for row, p in zip(program.reduced, basis):
        v = [Fraction(c, row[p]) for c in dense(row, n)]
        tableau.append(v[:-1] + [Fraction(-1 if v[-1] < 0 else 0), v[-1]])

    def pivot(r, col):
        tableau[r] = [v / tableau[r][col] for v in tableau[r]]
        for i, other in enumerate(tableau):
            if i != r and other[col]:
                tableau[i] = [a - other[col] * b for a, b in zip(other, tableau[r])]
        basis[r] = col

    infeasible = [i for i, row in enumerate(tableau) if row[-1] < 0]
    if infeasible:
        tableau.append([Fraction(0)] * n + [Fraction(1), Fraction(0)])
        pivot(min(infeasible, key=lambda i: (tableau[i][-1], basis[i])), n)
        while True:
            entering = next((j for j in range(n + 1) if tableau[-1][j] < 0), None)
            if entering is None:
                break
            eligible = [i for i in range(len(basis)) if tableau[i][entering] > 0]
            pivot(min(eligible, key=lambda i: (tableau[i][-1] / tableau[i][entering],
                                               basis[i])), entering)
        if tableau.pop()[-1]:
            return None
    x = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        if var < n:
            x[var] = row[-1]
    return x


def reference_variables(table: AlgebraTable) -> dict[int, int]:
    """The variable of each nonzero element, in index order."""
    return {e: i for i, e in enumerate(x for x in range(table.n) if x != table.zero)}


def reference_additivity_program(table: AlgebraTable) -> LinearProgram:
    """The additivity program with one variable per nonzero element and one
    row per defined sum, deduplicated: the oracle for the atom program of
    `additivity_program`, whose pair LPs must have the same verdicts."""
    var_of = reference_variables(table)
    n_vars = len(var_of)
    rows = []
    seen = set()
    for (i, j), k in table.sums.items():
        coeffs = [0] * n_vars
        for element, delta in ((i, 1), (j, 1), (k, -1)):
            if element != table.zero:
                coeffs[var_of[element]] += delta
        key = tuple(coeffs)
        if any(key) and key not in seen:
            seen.add(key)
            rows.append((key, 0))
    return LinearProgram(n_vars, sparse(rows))


def reference_pair_row(table: AlgebraTable, lo: int, hi: int):
    """s(lo) - s(hi) = 1 over the reference program's variables; s(0) = 0
    has no variable."""
    var_of = reference_variables(table)
    return tuple(sorted((var_of[e], w) for e, w in ((lo, 1), (hi, -1)) if e != table.zero)), 1


def fraction_values(state: GeneralizedState) -> tuple[Fraction, ...]:
    """The state's values as Fractions."""
    return tuple(Fraction(p, state.den) for p in state.nums)


def state_of(values) -> GeneralizedState:
    """The state with these rational values (ints, Fractions or their
    strings), over the lcm of their denominators."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in fracs))
    return GeneralizedState(tuple(v.numerator * (den // v.denominator) for v in fracs), den)


def reference_state(table: AlgebraTable, x) -> GeneralizedState:
    """The state of a reference LP point, one value per nonzero element."""
    values = iter(x)
    return state_of([0 if e == table.zero else next(values) for e in range(table.n)])


def reference_search(gea, goal: str):
    """A witness search whose states come from the reference program."""
    table = gea.table
    cone = reference_additivity_program(table)

    def find(lo, hi):
        x = lp_feasible(cone.extended([reference_pair_row(table, lo, hi)]))
        return None if x is None else reference_state(table, x)

    return reference_walk(gea, goal, find)


def reference_walk(gea, goal: str, find) -> StateWitnessSet:
    """reference_assign_witnesses over the goal's pairs in lexicographic
    order: each (a, b) with a not <= b for the order goal, find(a, b); each
    a < b to separate, find(a, b) or, failing that, find(b, a)."""
    table = gea.table
    if goal == "order":
        return reference_assign_witnesses(table, goal, pairs_not_leq(gea.above), find)
    pairs = ((a, b) for a in range(table.n) for b in range(a + 1, table.n))
    return reference_assign_witnesses(table, goal, pairs, lambda a, b: find(a, b) or find(b, a))


def reference_validate(state: GeneralizedState, table: AlgebraTable) -> None:
    """InputError unless the state is a generalized state on the table: one
    nonnegative value per element, zero at zero, and additive on every
    defined sum, walked one sum at a time."""
    nums = state.nums
    if len(nums) != table.n:
        raise InputError("state length does not match element count")
    if any(p < 0 for p in nums):
        raise InputError("state values must be nonnegative")
    if nums[table.zero] != 0:
        raise InputError("state must vanish at zero")
    for (i, j), k in table.sums.items():
        if nums[i] + nums[j] != nums[k]:
            raise InputError(f"state is not additive on {table.elements[i]}+{table.elements[j]}")


def reference_first_nonadditive(table: AlgebraTable, lanes) -> Optional[tuple[int, int, int]]:
    """algebra.first_nonadditive as a walk over the defined sums in key
    order, lane by lane."""
    for (i, j), k in table.sums.items():
        if any(lane[i] + lane[j] != lane[k] for lane in lanes):
            return i, j, k
    return None


def reference_assign_witnesses(table: AlgebraTable, goal: str, pairs,
                               find) -> StateWitnessSet:
    """The witness search as a walk over the pairs in the order given, from
    no states: a pair that no state covers, s(a) > s(b) for the order goal
    and s(a) != s(b) to separate, asks find for a state, which is validated
    and takes the next slot, with the pair at that slot of provenance; a
    pair find cannot witness is a failure.  The oracle for the coverage
    masks of order_determining_set and separating_set, as one record."""
    covers = operator.gt if goal == "order" else operator.ne
    found, provenance, failures = [], [], []
    for a, b in pairs:
        if any(covers(s.nums[a], s.nums[b]) for s in found):
            continue
        state = find(a, b)
        if state is None:
            failures.append((a, b))
        else:
            reference_validate(state, table)
            provenance.append((a, b))
            found.append(state)
    return StateWitnessSet(goal, found, provenance, failures)


def atom_state(program, x) -> GeneralizedState:
    """The state of an atom-program point x: s(e) = vec(e)·x for every
    element e, a dot product per element over the nonzero coordinates of x,
    in ints over the lcm of their denominators."""
    support = [(j, value.numerator, value.denominator) for j, value in enumerate(x) if value]
    den = lcm(*(q for _, _, q in support))
    return GeneralizedState(tuple(sum(vec[j] * p * (den // q) for j, p, q in support)
                                  for vec in program.vecs), den)


def atom_pair_program(program, lo: int, hi: int) -> LinearProgram:
    """The atom program with its pair row (vec(lo) - vec(hi))·v = 1."""
    return program.extended([(_difference(program.vecs[lo], program.vecs[hi]), 1)])


def witness_pairs(table: AlgebraTable):
    """Every witness LP's pair: (a, b) for s(a) - s(b) = 1, for each order
    pair and both normalizations of each separation pair."""
    pairs = pairs_not_leq(induced_order(table))
    return pairs + [p for a in range(table.n) for b in range(a + 1, table.n)
                    for p in ((a, b), (b, a))]


def pair_programs(table):
    """Every witness LP of a table over its atoms, in witness_pairs order."""
    program = additivity_program(require_gea(table))
    for lo, hi in witness_pairs(table):
        yield atom_pair_program(program, lo, hi)


def reference_pair_programs(table):
    """Every witness LP of a table in the reference program, in
    witness_pairs order."""
    cone = reference_additivity_program(table)
    for lo, hi in witness_pairs(table):
        yield cone.extended([reference_pair_row(table, lo, hi)])


def assert_witness_set(gea, witnesses) -> None:
    """Coverage of a search's result, recomputed from its states.

    Each pair the search handles (every a not below b for the order goal,
    every a < b to separate) is covered by some state, one with s(a) > s(b) or
    s(a) != s(b), exactly when it is not a failure.  provenance holds one
    pair per state, in slot order, the pairs increasing: the pair whose LP
    made the state, which the state covers and no earlier state does."""
    n = gea.table.n
    if witnesses.goal == "order":
        above = gea.above
        covers = operator.gt
        pairs = [(a, b) for a in range(n) for b in range(n) if not above[a] >> b & 1]
    else:
        covers, pairs = operator.ne, [(a, b) for a in range(n) for b in range(a + 1, n)]
    found = witnesses.states
    failures = set(witnesses.failures)
    assert len(failures) == len(witnesses.failures) and failures <= set(pairs)
    for a, b in pairs:
        covered = any(covers(s.nums[a], s.nums[b]) for s in found)
        assert covered != ((a, b) in failures), (a, b)
    made = witnesses.provenance
    assert type(made) is list and len(made) == len(found)
    assert made == sorted(made) and set(made) <= set(pairs)
    for slot, (a, b) in enumerate(made):
        assert covers(found[slot].nums[a], found[slot].nums[b])
        assert not any(covers(s.nums[a], s.nums[b]) for s in found[:slot])


def reference_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one matrix by numpy.linalg.eigvalsh of its
    Hermitian part, after the check that it is Hermitian within 1e-9."""
    with np.errstate(over="ignore"):
        defect = float(np.abs(mat - mat.conj().T).max())
    if not defect <= 1e-9:
        raise InputError(f"matrix is not Hermitian (defect {defect:.3e})")
    w = np.linalg.eigvalsh(mat / 2 + mat.conj().T / 2)
    if not np.isfinite(w).all():
        raise InputError("matrix spectrum overflows double precision")
    return w


def reference_table_from_effects(labels: list[str], mats: dict[str, EffectMatrix],
                                 unit: Optional[str] = None) -> AlgebraTable:
    """The effect table pair by pair: each label decided an effect once, then
    per ordered pair a dimension check, the sum's own spectrum, and a walk
    over the labels for the first one np.allclose accepts."""
    effect = {}
    for label in labels:
        w = reference_eigenvalues(mats[label].mat)
        effect[label] = w[0] >= -PSD_TOL and w[-1] <= 1.0 + PSD_TOL
    sums = []
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            da, db = mats[la].dim, mats[lb].dim
            if da != db:
                raise InputError(f"dimension mismatch: A is {da} x {da}, B is {db} x {db}")
            if not (effect[la] and effect[lb]):
                raise InputError("every label must be an effect between 0 and the identity")
            total = mats[la].mat + mats[lb].mat
            if reference_eigenvalues(total)[-1] > 1.0 + PSD_TOL:
                continue
            for k, lc in enumerate(labels):
                if np.allclose(total, mats[lc].mat, atol=1e-12):
                    sums.append((i, j, k))
                    break
    unit_index = labels.index(unit) if unit is not None else None
    return AlgebraTable(tuple(labels), labels.index("0"), sums, unit_index)


def triples(sums: dict) -> list[tuple[int, int, int]]:
    """A {(i, j): k} dict of sums as the (i, j, k) triples AlgebraTable takes."""
    return [(i, j, k) for (i, j), k in sums.items()]


def order_breach_tables() -> tuple[AlgebraTable, AlgebraTable, tuple[int, ...]]:
    """The antichain {0, a, b, c}, the table {0, x, y, z} with x + y = z,
    and the map a -> x, b -> z, c -> y: an injective morphism onto a closed
    image, yet f(a) <= f(b) with a not below b, so not an embedding."""
    zero_sums = [(0, i, i) for i in range(4)] + [(i, 0, i) for i in range(1, 4)]
    source = AlgebraTable(("0", "a", "b", "c"), 0, zero_sums)
    target = AlgebraTable(("0", "x", "y", "z"), 0, zero_sums + [(1, 2, 3), (2, 1, 3)])
    return source, target, (0, 1, 3, 2)


def write_table(table: AlgebraTable, path) -> None:
    """Write table as an algebra file, its sums in key order."""
    lab = table.elements
    data = {"elements": list(lab), "zero": lab[table.zero],
            "sums": [[lab[i], lab[j], lab[k]] for (i, j), k in table.sums.items()]}
    if table.unit is not None:
        data["unit"] = lab[table.unit]
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def write_matrix(matrix: EffectMatrix, path) -> None:
    data = {"dim": matrix.dim, "re": matrix.mat.real.tolist(), "im": matrix.mat.imag.tolist()}
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def random_vector(rng: random.Random, dim: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)])


def random_positive_matrix(rng: random.Random, dim: int) -> EffectMatrix:
    """Seeded random positive matrix G*G / d, spectral radius at most 2d."""
    g = random_vector(rng, dim * dim).reshape(dim, dim)
    return EffectMatrix((g.conj().T @ g) / dim)


def axiom_witnesses(report: AxiomReport, axiom: str) -> list[tuple[int, ...]]:
    return [v.witness for v in report.violations if v.axiom == axiom]


def down_set_table(points: list[tuple[int, ...]]) -> AlgebraTable:
    """The down-set points of N^m (points[0] = 0), with x + y defined iff
    the vector sum is in it; each element is labelled by its coordinates."""
    index = {p: i for i, p in enumerate(points)}
    sums = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            k = index.get(tuple(a + b for a, b in zip(x, y)))
            if k is not None:
                sums.append((i, j, k))
    return AlgebraTable(tuple(".".join(map(str, p)) for p in points), 0, sums)


def glued(left: AlgebraTable, right: AlgebraTable) -> AlgebraTable:
    """left and right glued at their zeros (index 0 in both): right's
    nonzero elements follow left's, and a sum is defined only inside one
    part."""
    n = left.n
    place = [0] + list(range(n, n + right.n - 1))
    sums = [*left.triples(), *((place[i], place[j], place[k]) for i, j, k in right.triples())]
    return AlgebraTable(left.elements + right.elements[1:], 0, sums)


def product(*parts: AlgebraTable) -> AlgebraTable:
    """The direct product of tables whose zero is index 0: tuples of
    elements, summed coordinatewise where every coordinate's sum is
    defined."""
    points = list(itertools.product(*(range(t.n) for t in parts)))
    index = {p: i for i, p in enumerate(points)}
    part_sums = [t.sums for t in parts]  # each read of sums builds the dict
    sums = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            k = tuple(s.get(pair) for s, pair in zip(part_sums, zip(x, y)))
            if None not in k:
                sums.append((i, j, index[k]))
    labels = tuple(".".join(t.elements[c] for t, c in zip(parts, p)) for p in points)
    return AlgebraTable(labels, 0, sums)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of the gea command line.  A flag given nowhere is
    missing from its namespace; main read --json as False and --seed as 0
    then."""
    # The shared flags are accepted both before and after the subcommand.
    # Every parser shares the same two actions, so their default must stay
    # SUPPRESS: any other default would be written by the subcommand's parser
    # over a pre-command occurrence.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the machine-readable report")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled self-checks (default: 0)")

    parser = argparse.ArgumentParser(
        prog="gea",
        parents=[common],
        description="Decide representability of finite generalized effect algebras "
                    "and build verified diagonal operator representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="verify the axioms of a table file")
    p.add_argument("path")
    p.add_argument("--ea", action="store_true", help="also check the effect algebra axioms")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("order", parents=[common], help="print the induced partial order")
    p.add_argument("path")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("states", parents=[common],
                       help="compute a witness set of generalized states")
    p.add_argument("path")
    p.add_argument("--goal", choices=("separate", "order"), default="order")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("represent", parents=[common],
                       help="build and verify the diagonal representation")
    p.add_argument("path")
    p.add_argument("--goal", choices=("separate", "order"), default="order")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("morphism", parents=[common],
                       help="classify a map between two table files")
    p.add_argument("path")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("effects", parents=[common],
                       help="finite-dimensional matrix checks and demos")
    esub = p.add_subparsers(dest="effects_command", required=True)
    d = esub.add_parser("demo-excd", parents=[common],
                        help="run the projector demo end to end")
    d.set_defaults(func=cmd_effects_demo)
    c = esub.add_parser("check", parents=[common],
                        help="positivity/effect check for a matrix file")
    c.add_argument("path")
    c.set_defaults(func=cmd_effects_check)
    w = esub.add_parser("witness", parents=[common],
                        help="order witness vector for two positive matrices")
    w.add_argument("path")
    w.add_argument("path_b")
    w.set_defaults(func=cmd_effects_witness)

    return parser
