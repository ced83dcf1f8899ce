"""Check that every per-layer count repeats exactly for a seed.

    python3 perfbench/determinism.py [--seed N] [WORKLOAD ...]

Runs the first round of each workload twice, traced, each time in a fresh
worker, and compares every count (lp.calls, lp.rows, states.pairs,
algebra.check_gea_axioms.calls, ...).  Exits 1 if any count differs.

It also prints how many axiom scans each represent job made.  At the commit
that defined the benchmark that is 4 per job that exits 0 and 2 per job that
exits 3 (the load-time scan, the one in the witness search, and, on success,
one each in build_representation and verify_order_reflecting).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE_SCANS = {0: 4, 3: 2}


def counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items()
            if not (k.endswith("_s") or ".call_s." in k or k.startswith("trace."))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    env = run.worker_env()
    stable = True
    for workload in args.workloads:
        first, second = (run.run_worker(workload, args.seed, 0, 1, env, ("--max-rounds", "1"))
                         for _ in range(2))
        a, b = counts(first["layer"]), counts(second["layer"])
        moved = sorted(k for k in a if a[k] != b.get(k))
        stable &= not moved
        print(f"{workload}: {len(a)} counts, "
              + ("all repeat exactly" if not moved else f"DIFFER: {', '.join(moved)}"))
        scans = Counter()
        for job, (name, _, code) in enumerate(first["jobs"]):
            if name.startswith("represent:") and code in BASELINE_SCANS:
                calls = first["gea_calls_per_job"].get(str(job), 0)
                scans[(code, calls)] += 1
        for (code, calls), jobs in sorted(scans.items()):
            note = "" if calls == BASELINE_SCANS[code] else f" (baseline: {BASELINE_SCANS[code]})"
            print(f"  represent jobs exiting {code}: {jobs} with {calls} axiom scans each{note}")
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
