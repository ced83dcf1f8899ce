"""The benchmark's workloads.

A run is a sequence of rounds.  A round is the workload's fixed job list,
built from (workload, seed, round number): every round disguises its tables
afresh (see families.disguise), so no input repeats within a run and no
cache across calls can make a later round cheaper.  Building a round writes
its input files; it is not timed.

Most jobs are one in-process ``gea.cli.main([..., "--json"])`` call.  The
small-mix workload also times one ``gea.generate.random_population`` call
per round, the only entry point of that module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import families as F

WORKLOADS = ("witness-lp", "obstructed", "wide-tables", "small-mix")
GOALS = ("order", "separate")

# Feasible witness LPs that dominate job time (C_14 takes 0.15-0.26 s,
# depending on the label permutation).
WITNESS_LP = {
    **{f"C{n}": (lambda n=n: F.chain(n)) for n in range(8, 15)},
    "cube3": lambda: F.cube(3),
    "cube4": lambda: F.cube(4),
    "C3xC4": lambda: F.product(F.chain(3), F.chain(4)),
    "C4xC4": lambda: F.product(F.chain(4), F.chain(4)),
}

# Every family carries the no_states obstruction, so both goals exit 3 and
# each failing pair costs a full infeasible LP.  Products with no_states grow
# quickly (C_4 x no_states takes 5 s), so the larger families are glued.  No
# family is much dearer than the rest: the time of one job varies with the
# label permutation by up to 30 %, and a single dominant job would carry that
# into every round.
OBSTRUCTED = {
    "NS": F.no_states,
    "C2xNS": lambda: F.product(F.chain(2), F.no_states()),
    "C3xNS": lambda: F.product(F.chain(3), F.no_states()),
    "C6+NS": lambda: F.horizontal_sum(F.chain(6), F.no_states()),
    "C8+NS": lambda: F.horizontal_sum(F.chain(8), F.no_states()),
    "C9+NS": lambda: F.horizontal_sum(F.chain(9), F.no_states()),
    "C10+NS": lambda: F.horizontal_sum(F.chain(10), F.no_states()),
    "cube3+NS": lambda: F.horizontal_sum(F.cube(3), F.no_states()),
    "C3xC4+NS": lambda: F.horizontal_sum(F.product(F.chain(3), F.chain(4)), F.no_states()),
}

# Wide tables with trivial LPs: the antichains need one witness slot per
# atom but every LP has a single row; the n = 32 and n = 64 effect algebras
# only go through the axiom scans and the induced order.
WIDE_REPRESENT = {"anti16": lambda: F.antichain(16), "anti24": lambda: F.antichain(24)}
WIDE_SCAN = {
    "cube5": lambda: F.cube(5),
    "C4xC8": lambda: F.product(F.chain(4), F.chain(8)),
    "cube6": lambda: F.cube(6),
    "C4^3": lambda: F.product(F.chain(4), F.chain(4), F.chain(4)),
}

CORPUS = ("singleton", "excd", "excd_ext", "diamond", "chain_c3", "cube8",
          "no_states", "broken_ge3", "ea_no_complement")
MORPHISMS = ("id_d4", "incl_excd", "zero_d4")
EFFECT_DIMS = (2, 4, 8, 16)
MATRIX_KINDS = ("effect", "positive", "indefinite")
POPULATION = {"count": 8, "max_n": 6, "seeds": 128}

MAX_ROUNDS = POPULATION["seeds"]  # so that no population seed repeats within a run


@dataclass
class Job:
    """One timed call and the untimed check of what it returned."""

    name: str
    argv: Optional[list[str]]
    check: Callable[[int, str], Optional[str]]
    call: Optional[Callable[[object], tuple[int, str]]] = None

    def run(self, gea) -> tuple[int, str]:
        if self.call is not None:
            return self.call(gea)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gea.cli.main(self.argv)
        return code, out.getvalue()


@dataclass
class Round:
    workdir: Path
    root: Path
    rng: random.Random
    expected: dict
    jobs: list[Job] = field(default_factory=list)
    files: int = 0

    def write(self, data: dict, stem: str) -> str:
        self.files += 1
        path = self.workdir / f"f{self.files:03d}-{stem}.json"
        path.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
        return str(path.relative_to(self.root))

    def cli(self, name: str, argv: list[str], check) -> None:
        self.jobs.append(Job(name, argv + ["--json"], check))

    def disguised(self, table: dict) -> tuple[dict, dict, str]:
        shown, rename = F.disguise(table, self.rng)
        return shown, rename, self.write(shown, "table")

    def sample_seed(self) -> str:
        return str(self.rng.randrange(1 << 16))


def build_round(workload: str, seed: int, number: int, root: Path,
                workdir: Path, expected: dict) -> list[Job]:
    rng = random.Random(f"{workload}/{seed}/{number}")
    rnd = Round(workdir, root, rng, expected)
    BUILDERS[workload](rnd, seed, number)
    return rnd.jobs


def _expect(code: int, text: str, want: int, then=None) -> Optional[str]:
    if code != want:
        return f"exit {code}, expected {want}"
    if then is None:
        return None
    return then(checks.parse(text))


def _represent_ok(rnd: Round, name: str, table: dict, goal: str) -> None:
    shown, _, path = rnd.disguised(table)
    rnd.cli(f"represent:{name}:{goal}",
            ["represent", path, "--goal", goal, "--seed", rnd.sample_seed()],
            lambda code, text: _expect(
                code, text, 0, lambda r: checks.representation(shown, r, goal)))


def _obstructed(rnd: Round, name: str, table: dict, goal: str, recorded) -> None:
    shown, rename, path = rnd.disguised(table)
    expected = checks.pair_set([[rename[x] for x in p] for p in recorded], goal)
    rnd.cli(f"represent:{name}:{goal}",
            ["represent", path, "--goal", goal, "--seed", rnd.sample_seed()],
            lambda code, text: _expect(
                code, text, 3, lambda r: checks.failures(r, goal, expected)))


def witness_lp(rnd: Round, seed: int, number: int) -> None:
    for name, build in WITNESS_LP.items():
        _represent_ok(rnd, name, build(), "order")


def obstructed(rnd: Round, seed: int, number: int) -> None:
    for goal in GOALS:
        for name, build in OBSTRUCTED.items():
            _obstructed(rnd, name, build(), goal, rnd.expected["obstructed"][name][goal])


def wide_tables(rnd: Round, seed: int, number: int) -> None:
    for name, build in WIDE_REPRESENT.items():
        for goal in GOALS:
            _represent_ok(rnd, name, build(), goal)
    for name, build in WIDE_SCAN.items():
        shown, _, path = rnd.disguised(build())
        rnd.cli(f"check:{name}", ["check", path, "--ea"],
                lambda code, text: _expect(code, text, 0, _both_axiom_sets_pass))
        rnd.cli(f"order:{name}", ["order", path],
                lambda code, text, shown=shown: _expect(
                    code, text, 0, lambda r: checks.order(shown, r)))


def _both_axiom_sets_pass(report: dict) -> Optional[str]:
    if not (report["gea"]["passed"] and report["ea"]["passed"]):
        return "an axiom scan failed on an effect algebra"
    return None


def small_mix(rnd: Round, seed: int, number: int) -> None:
    corpus_dir = rnd.root / "src" / "gea" / "corpus"
    for name in CORPUS:
        _corpus_table(rnd, name, json.loads((corpus_dir / f"{name}.json").read_text()))
    for name in MORPHISMS:
        _corpus_morphism(rnd, corpus_dir, name)
    rnd.cli("effects:demo-excd", ["effects", "demo-excd"],
            lambda code, text: _expect(code, text, 0, _demo_ok))
    # Kinds rotate with the round, so every round has the same mix of
    # outcomes and only the matrices change.
    for i, dim in enumerate(EFFECT_DIMS):
        _effects_check(rnd, dim, MATRIX_KINDS[(i + number) % len(MATRIX_KINDS)])
        _effects_witness(rnd, dim, below=(i + number) % 2 == 0)
    _population(rnd, (seed * 101 + number) % POPULATION["seeds"])


def _corpus_table(rnd: Round, name: str, table: dict) -> None:
    shown, rename, path = rnd.disguised(table)
    recorded = rnd.expected["corpus"][name]
    check_argv = ["check", path] + (["--ea"] if "unit" in table else [])
    rnd.cli(f"check:{name}", check_argv,
            lambda code, text: _expect(code, text, recorded["check"]))
    rnd.cli(f"order:{name}", ["order", path],
            lambda code, text: _expect(code, text, recorded["order"],
                                       lambda r: checks.order(shown, r)
                                       if recorded["order"] == 0 else None))
    for command in ("states", "represent"):
        _recorded_search(rnd, f"{command}:{name}", command, shown, rename, path,
                         "order", recorded[command])


def _recorded_search(rnd: Round, name: str, command: str, shown: dict, rename: dict,
                     path: str, goal: str, recorded: dict) -> None:
    """A states/represent job whose exit code (and failure pairs, on exit 3)
    were recorded at the seed commit."""
    want = recorded["exit"]
    if want == 0:
        verify = checks.representation if command == "represent" else checks.states
        then = lambda r: verify(shown, r, goal)  # noqa: E731
    elif want == 3:
        expected = checks.pair_set(
            [[rename[x] for x in p] for p in recorded["failures"]], goal)
        then = lambda r: checks.failures(r, goal, expected)  # noqa: E731
    else:
        then = None
    argv = [command, path, "--goal", goal]
    if command == "represent":
        argv += ["--seed", rnd.sample_seed()]
    rnd.cli(name, argv, lambda code, text: _expect(code, text, want, then))


def _corpus_morphism(rnd: Round, corpus_dir: Path, name: str) -> None:
    spec = json.loads((corpus_dir / f"{name}.json").read_text())
    files = {}
    for role in ("source", "target"):
        if spec[role] not in files:
            table = json.loads((corpus_dir / spec[role]).read_text())
            _, rename, path = rnd.disguised(table)
            files[spec[role]] = (rename, Path(path).name)
    src_rename, src_file = files[spec["source"]]
    tgt_rename, tgt_file = files[spec["target"]]
    shown = {"source": src_file, "target": tgt_file,
             "map": {src_rename[x]: tgt_rename[y] for x, y in spec["map"].items()}}
    path = rnd.write(shown, "morphism")
    recorded = rnd.expected["morphisms"][name]

    def flags(report: dict) -> Optional[str]:
        got = {k: report["morphism"][k] for k in recorded["flags"]}
        return None if got == recorded["flags"] else f"flags {got} != recorded {recorded['flags']}"

    rnd.cli(f"morphism:{name}", ["morphism", path],
            lambda code, text: _expect(code, text, recorded["exit"], flags))


def _demo_ok(report: dict) -> Optional[str]:
    demo = report["demo"]
    wanted = {"gea_axioms_pass": True, "order_determining_found": True,
              "is_morphism": True, "order_reflecting": True, "embedding": False}
    got = {k: demo[k] for k in wanted}
    return None if got == wanted else f"demo flags {got}"


def _hermitian(rng: np.random.Generator, eigenvalues: np.ndarray) -> np.ndarray:
    """A Hermitian matrix with the given spectrum, in a random unitary basis."""
    d = len(eigenvalues)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    m = q @ np.diag(eigenvalues) @ q.conj().T
    return (m + m.conj().T) / 2


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _effects_check(rnd: Round, dim: int, kind: str) -> None:
    """A matrix whose spectrum is chosen, so positivity and the effect bound
    are known with a margin far wider than the program's tolerance."""
    rng = np.random.default_rng(rnd.rng.randrange(1 << 32))
    w = rng.uniform(0.05, 0.8, dim)
    if kind == "positive":
        w[0] = 1.5
    elif kind == "indefinite":
        w[0] = -0.2
    path = rnd.write(_matrix_json(_hermitian(rng, w)), "matrix")
    positive, effect = kind != "indefinite", kind == "effect"

    def flags(report: dict) -> Optional[str]:
        got = (report["matrix"]["positive"], report["matrix"]["effect"])
        return None if got == (positive, effect) else f"(positive, effect) = {got} for a {kind} matrix"

    rnd.cli(f"effects-check:{dim}", ["effects", "check", path],
            lambda code, text: _expect(code, text, 0 if positive else 1, flags))


def _effects_witness(rnd: Round, dim: int, below: bool) -> None:
    """A <= B when B - A is positive; otherwise B - A has the eigenvalue -0.2
    and the reported witness must show <x, A x> > <x, B x>."""
    rng = np.random.default_rng(rnd.rng.randrange(1 << 32))
    a = _hermitian(rng, rng.uniform(0.5, 1.5, dim))
    step = rng.uniform(0.05, 0.3, dim)
    if not below:
        step[0] = -0.2
    b = a + _hermitian(rng, step)
    path_a = rnd.write(_matrix_json(a), "matrix")
    path_b = rnd.write(_matrix_json(b), "matrix")

    def verdict(report: dict) -> Optional[str]:
        if report["a_below_b"] != below:
            return f"a_below_b is {report['a_below_b']}, expected {below}"
        return None if below else checks.witness_vector(a, b, report)

    rnd.cli(f"effects-witness:{dim}", ["effects", "witness", path_a, path_b],
            lambda code, text: _expect(code, text, 0, verdict))


def population_digest(tables) -> str:
    """Digest of generated tables, read from the program's table objects."""
    data = [[list(t.elements), t.zero, t.unit, sorted([i, j, k] for (i, j), k in t.sums.items())]
            for t in tables]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def population_table(entry: dict) -> dict:
    """A recorded population table in the file format; the generator labels
    its elements "0", "e1", "e2", ... and adds every zero sum."""
    labels = ["0"] + [f"e{i}" for i in range(1, entry["n"])]
    sums = [["0", x, x] for x in labels] + [[x, "0", x] for x in labels[1:]]
    sums += [[labels[i], labels[j], labels[k]] for i, j, k in entry["sums"]]
    return {"elements": labels, "zero": "0", "sums": sums}


def _population(rnd: Round, pop_seed: int) -> None:
    """Time the generator, then represent the tables it made at the seed
    commit; the inputs come from the record, so they do not depend on the
    generator under test."""
    recorded = rnd.expected["population"][pop_seed]

    def generate(gea) -> tuple[int, str]:
        tables = list(gea.generate.random_population(
            pop_seed, POPULATION["count"], POPULATION["max_n"]))
        return 0, population_digest(tables)

    rnd.jobs.append(Job(f"generate:{pop_seed}", None,
                        lambda code, digest: None if digest == recorded["digest"]
                        else "random_population digest differs from the seed commit",
                        call=generate))
    for i, entry in enumerate(recorded["tables"]):
        table = population_table(entry)
        identity = {x: x for x in table["elements"]}
        path = rnd.write(table, "table")
        for goal in GOALS:
            _recorded_search(rnd, f"represent:pop{pop_seed}.{i}:{goal}", "represent",
                             table, identity, path, goal, entry[goal])


BUILDERS = {"witness-lp": witness_lp, "obstructed": obstructed,
            "wide-tables": wide_tables, "small-mix": small_mix}
