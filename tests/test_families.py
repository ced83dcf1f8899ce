"""Known-answer families past the corpus: tables that the paper's theorem
says are representable, built here from their definitions.

- A down-set S of N^m (0 in S, closed downward), with x + y defined iff
  the vector sum lies in S.  Both sides of GE2 are defined iff x + y + z is
  in S, and the induced order is the componentwise one, so the m
  coordinates are an order-determining set of states.
- MO_k: 0, 1 and a_i, b_i for i < k, with a_i + b_i = 1 and every other
  sum involving zero.  s(a_i) = i + 1, s(b_i) = 2k + 1 - s(a_i) and its
  reverse order it.

Both witness searches must succeed on every such table, and the diagonal
representation they give must pass its checks.  The slot counts are not
pinned: a smaller witness set is a valid answer too.

Glued to no_states at zero (a + a = c = b + b, and no sum across the two
parts), each such table loses its witnesses on a and b alone: a state of
the glued table is a state on each part, and every state of no_states has
s(a) = s(b).  So the order search fails exactly on (a, b) and (b, a), the
separating search exactly on (a, b), and `represent` exits 3.  Every LP
that finds no state there returns its None with row weights that
`reference_refutes` rechecks (see `reference.checked_proofs`).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea import corpus
from gea.algebra import AlgebraTable, require_gea
from gea.cli import main
from gea.represent import (build_representation, verify_injective, verify_morphism,
                           verify_order_reflecting)
from gea.states import GeneralizedState, order_determining_set, separating_set
from reference import checked_proofs, down_set_table, glued, leq, write_table


def down_set(rng: random.Random, m: int, n: int) -> list[tuple[int, ...]]:
    """n points of N^m grown from 0 one unit step at a time, each new point
    having all its lower neighbours in the set already."""
    points = [(0,) * m]
    members = set(points)
    while len(points) < n:
        x = rng.choice(points)
        c = rng.randrange(m)
        y = x[:c] + (x[c] + 1,) + x[c + 1:]
        lower = (y[:d] + (y[d] - 1,) + y[d + 1:] for d in range(m) if y[d])
        if y not in members and all(v in members for v in lower):
            points.append(y)
            members.add(y)
    return points


def mo_table(k: int) -> AlgebraTable:
    labels = ("0", "1") + tuple(f"{side}{i}" for i in range(k) for side in "ab")
    n = len(labels)
    sums = [(0, x, x) for x in range(n)] + [(x, 0, x) for x in range(1, n)]
    for i in range(k):
        a, b = 2 + 2 * i, 3 + 2 * i
        sums += [(a, b, 1), (b, a, 1)]
    return AlgebraTable(labels, 0, sums, unit=1)


def assert_represented(table: AlgebraTable) -> None:
    gea = require_gea(table)
    for goal, search in (("order", order_determining_set), ("separate", separating_set)):
        witnesses = search(gea)
        assert witnesses.ok, (goal, witnesses.failures)
        rep = build_representation(gea, witnesses.states)
        assert verify_morphism(rep, table) == (True, None), goal
        assert verify_injective(rep) == (True, None), goal
        if goal == "order":
            assert verify_order_reflecting(rep, gea) == (True, None)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(2, 60), seed=st.integers(0, 2 ** 32))
def test_down_sets_are_represented(m, n, seed):
    points = down_set(random.Random(seed), m, n)
    table = down_set_table(points)
    order = require_gea(table).above
    assert all(leq(order, i, j) == all(map(int.__le__, x, y))
               for i, x in enumerate(points) for j, y in enumerate(points))
    assert_represented(table)


@pytest.mark.parametrize("k", range(2, 9))
def test_mo_k_is_represented(k):
    assert_represented(mo_table(k))


@pytest.mark.parametrize("k", range(1, 13))
def test_mo_k_known_states_determine_the_order(k):
    # s1(a_i) = i + 1, s1(b_i) = 2k - i, s1(1) = 2k + 1, and s2 swaps a_i
    # and b_i: between them they order every a_i, b_j pair both ways.
    table = mo_table(k)
    gea = require_gea(table)
    s1 = GeneralizedState((0, 2 * k + 1, *(v for i in range(k) for v in (i + 1, 2 * k - i))))
    s2 = GeneralizedState((0, 2 * k + 1, *(v for i in range(k) for v in (2 * k - i, i + 1))))
    for state in (s1, s2):
        state.validate(table)
    rep = build_representation(gea, [s1, s2])
    assert verify_morphism(rep, table) == (True, None)
    assert verify_injective(rep) == (True, None)
    assert verify_order_reflecting(rep, gea) == (True, None)


def assert_obstructed(table: AlgebraTable, path, monkeypatch) -> None:
    _, proofs = checked_proofs(monkeypatch)
    glue = glued(table, corpus.load("no_states"))
    gea = require_gea(glue)
    a, b = glue.elements.index("a"), glue.elements.index("b")
    assert sorted(order_determining_set(gea).failures) == sorted([(a, b), (b, a)])
    assert separating_set(gea).failures == [(a, b)]
    write_table(glue, path)
    for goal in ("order", "separate"):
        assert main(["represent", str(path), "--goal", goal, "--json"]) == 3, goal
    # a + a = b + b makes the pair row of (a, b) reduce to 0 = c in each of
    # the four searches, which settles (b, a) as well.
    assert proofs == {"exact": 4}


@pytest.mark.parametrize("seed", range(20))
def test_glued_down_sets_are_obstructed(seed, tmp_path, capsys, monkeypatch):
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    assert_obstructed(down_set_table(down_set(rng, m, rng.randint(2, 40))), tmp_path / "t.json",
                      monkeypatch)


@pytest.mark.parametrize("k", range(2, 9))
def test_glued_mo_k_is_obstructed(k, tmp_path, capsys, monkeypatch):
    assert_obstructed(mo_table(k), tmp_path / "t.json", monkeypatch)
