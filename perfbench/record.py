"""Record the solver-independent expectations the checks compare against.

    python3 perfbench/record.py

Run from the repository root at the commit that defines the baseline.  It
writes perfbench/expected.json:

- obstructed: the failure pairs of every obstructed family, per goal, in the
  family's own labels (a failing pair has no witness whatever the solver,
  so this set does not depend on pivot rules or witness choice);
- corpus and morphisms: exit codes, failure pairs and morphism flags of the
  shipped corpus under the commands small-mix runs;
- population: for each population seed, the digest of the tables
  gea.generate.random_population returns, the tables themselves (the inputs
  of small-mix's represent jobs) and the exit code and failure pairs of
  represent on each table, per goal.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def run(gea, argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gea.cli.main(argv + ["--json"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def search(gea, command: str, path: str, goal: str) -> dict:
    code, report = run(gea, [command, path, "--goal", goal])
    entry = {"exit": code}
    if code == 3:
        entry["failures"] = report["witnesses"]["failures"]
    return entry


def main() -> int:
    import gea.cli
    import gea.generate

    workdir = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        expected = {"obstructed": {}, "corpus": {}, "morphisms": {}, "population": []}
        for name, build in W.OBSTRUCTED.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(build()))
            expected["obstructed"][name] = {
                goal: search(gea, "represent", str(path), goal)["failures"]
                for goal in W.GOALS}

        corpus = ROOT / "src" / "gea" / "corpus"
        for name in W.CORPUS:
            path = str(corpus / f"{name}.json")
            has_unit = "unit" in json.loads(Path(path).read_text())
            expected["corpus"][name] = {
                "check": run(gea, ["check", path] + (["--ea"] if has_unit else []))[0],
                "order": run(gea, ["order", path])[0],
                "states": search(gea, "states", path, "order"),
                "represent": search(gea, "represent", path, "order"),
            }
        for name in W.MORPHISMS:
            code, report = run(gea, ["morphism", str(corpus / f"{name}.json")])
            flags = {k: report["morphism"][k]
                     for k in ("is_morphism", "injective", "order_reflecting", "embedding")}
            expected["morphisms"][name] = {"exit": code, "flags": flags}

        for pop_seed in range(W.POPULATION["seeds"]):
            tables = list(gea.generate.random_population(
                pop_seed, W.POPULATION["count"], W.POPULATION["max_n"]))
            entries = []
            for table in tables:
                entry = {"n": table.n,
                         "sums": sorted([i, j, k] for (i, j), k in table.sums.items()
                                        if i != table.zero and j != table.zero)}
                shown = W.population_table(entry)
                if list(table.elements) != shown["elements"] or table.zero != 0:
                    raise SystemExit("random_population labels changed; update population_table")
                path = workdir / "pop.json"
                path.write_text(json.dumps(shown))
                for goal in W.GOALS:
                    entry[goal] = search(gea, "represent", str(path), goal)
                entries.append(entry)
            expected["population"].append(
                {"digest": W.population_digest(tables), "tables": entries})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
