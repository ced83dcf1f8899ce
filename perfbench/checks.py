"""Independent checks of the program's reports.

Each check returns None when the report is right and a one-line reason
otherwise.  Nothing here imports the program: witness states are re-checked
in exact Fractions against the sum triples the benchmark wrote, the induced
order is recomputed from those triples, and matrix claims are recomputed with
numpy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import numpy as np


def parse(text: str) -> dict:
    """The report is the last line a --json call prints."""
    return json.loads(text.strip().splitlines()[-1])


def below(table: dict) -> set[tuple[str, str]]:
    """Pairs (x, y), x != y, with x + z = y for some z."""
    return {(x, z) for x, _, z in table["sums"] if x != z}


def pair_set(pairs, goal: str) -> set:
    """Failure pairs as the goal defines them: ordered for "order",
    unordered for "separate"."""
    if goal == "order":
        return {tuple(p) for p in pairs}
    return {frozenset(p) for p in pairs}


def states(table: dict, report: dict, goal: str) -> Optional[str]:
    """Every reported state is a generalized state, and together they witness
    every pair the goal asks for."""
    labels = table["elements"]
    index = {x: i for i, x in enumerate(labels)}
    found = report["witnesses"]
    if found["failures"]:
        return f"unexpected failures {found['failures']}"
    vectors = [[Fraction(v) for v in s] for s in found["states"]]
    zero = index[table["zero"]]
    for s in vectors:
        if len(s) != len(labels):
            return "state length differs from the element count"
        if s[zero] != 0:
            return "state is not zero at zero"
        if min(s) < 0:
            return "state takes a negative value"
        for x, y, z in table["sums"]:
            if s[index[x]] + s[index[y]] != s[index[z]]:
                return f"state is not additive on {x}+{y}={z}"
    leq = below(table)
    n = len(labels)
    for a in range(n):
        for b in range(n):
            if a == b or (goal == "separate" and a > b):
                continue
            if goal == "order":
                if (labels[a], labels[b]) in leq:
                    continue
                if not any(s[a] > s[b] for s in vectors):
                    return f"no state orders ({labels[a]}, {labels[b]})"
            elif not any(s[a] != s[b] for s in vectors):
                return f"no state separates ({labels[a]}, {labels[b]})"
    return None


def representation(table: dict, report: dict, goal: str) -> Optional[str]:
    """The states check, the verification flags the goal requires, and the
    operators equal to the states slot by slot."""
    problem = states(table, report, goal)
    if problem:
        return problem
    rep = report["representation"]
    flags = rep["verification"]
    required = ["morphism", "injective", "sampled_ok"]
    if goal == "order":
        required.append("order_reflecting")
    for flag in required:
        if flags[flag] is not True:
            return f"verification flag {flag} is {flags[flag]}"
    found = report["witnesses"]["states"]
    for i, x in enumerate(table["elements"]):
        column = [Fraction(s[i]) for s in found]
        if [Fraction(v) for v in rep["operators"][x]] != column:
            return f"operator of {x} differs from the witness values"
    return None


def failures(report: dict, goal: str, expected: set) -> Optional[str]:
    got = pair_set(report["witnesses"]["failures"], goal)
    if got != expected:
        return f"failure pairs {sorted(map(sorted, got))} != recorded {sorted(map(sorted, expected))}"
    return None


def order(table: dict, report: dict) -> Optional[str]:
    got = {tuple(p) for p in report["order"]["strictly_below"]}
    if got != below(table):
        return "strictly_below differs from the order of the sum table"
    triples = {tuple(t) for t in table["sums"]}
    for key, diff in report["order"]["differences"].items():
        upper, lower = key.split(",")
        if (lower, diff, upper) not in triples:
            return f"difference {key} -> {diff} is not a sum"
    return None


def witness_vector(a: np.ndarray, b: np.ndarray, report: dict) -> Optional[str]:
    """The reported unit vector x has <x, A x> > <x, B x>, by a margin."""
    x = np.array(report["witness"]["re"]) + 1j * np.array(report["witness"]["im"])
    gap = np.real(np.vdot(x, a @ x)) - np.real(np.vdot(x, b @ x))
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        return "witness is not a unit vector"
    if gap < 0.05:
        return f"<x,Ax> - <x,Bx> = {gap:.3e} is not positive"
    return None
