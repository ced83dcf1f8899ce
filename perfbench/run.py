"""The gea benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  For each workload it measures set-up time
(a fresh interpreter importing gea.cli, several times), then runs the
workload in a fresh single-threaded worker process (worker.py) and prints
every metric by name and unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
from a run with spans around every public gea function (tracing.py).
End-to-end times are scaled to the speed of a fixed reference probe
(calibrate.py); span times are not.

Workloads, metrics and bounds are listed in BENCHMARK.json; README.md in
this directory explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 165.0
# One thread everywhere: the program is single-threaded and the machine is
# shared, so BLAS thread pools would only add noise.  A fixed hash seed keeps
# set iteration order, and with it every count, the same from run to run.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def worker_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("GEA_SEED", None)
    return env


# The child reports the moment gea.cli is imported, then times the speed
# probe (calibrate.py) a few times on the same vCPU.  time.monotonic is one
# clock for every process of the machine.
SETUP_CHILD = """import sys, time
import gea.cli
done = time.monotonic()
sys.path.insert(0, sys.argv[1])
import calibrate
print(done, *(calibrate.probe()[0] for _ in range(calibrate.SETUP_PROBES)))
"""


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median time from starting an interpreter to gea.cli imported, scaled
    to reference speed by probes the child takes after the import, and the
    same median unscaled.

    No timeout is passed: with one, subprocess polls the child with sleeps
    of up to 50 ms, which would round every time up to that grid."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE)], cwd=ROOT, env=env,
                             check=True, capture_output=True, text=True).stdout.split()
        seconds = float(out[0]) - t0
        raw.append(seconds)
        scaled.append(seconds * calibrate.REFERENCE_S / statistics.median(map(float, out[1:])))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               extra: tuple[str, ...] = ()) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp") as tmp:
        result = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--result", str(result), *extra]
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S)
        return json.loads(result.read_text())


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = worker_env()
    setup, raw_setup = setup_seconds(env)
    worker = run_worker(workload, seed, seconds, trace, env)
    worker["raw"]["setup_s"] = raw_setup
    values = worker["layer"] if trace else dict(worker["metrics"], setup_s=setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics, "worker": worker}


def report(workload: str, outcome: dict) -> None:
    worker = outcome["worker"]
    print(f"# {workload}: {worker['rounds']} rounds of {worker['jobs_per_round']} jobs, "
          f"{outcome['attempted']} attempted, {outcome['failed']} failed, "
          f"failed_ratio {outcome['failed'] / outcome['attempted']:.4f}, "
          f"measured {worker['measured_s']:.1f} s")
    print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in worker["raw"].items()))
    for line in worker["failures"]:
        print(f"#   FAILED {line}")
    for name, metric in outcome["metrics"].items():
        print(f"{workload:12s} {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    if "spans_file" in worker:
        print(f"# {worker['spans']} spans written to {worker['spans_file']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from workloads import WORKLOADS

    if not (ROOT / "src" / "gea" / "cli.py").is_file():
        print(f"no gea sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    outcomes = {}
    for name in names:
        try:
            outcomes[name] = measure(name, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: benchmark process failed: {exc}", file=sys.stderr)
            return 1
        report(name, outcomes[name])
    sys.stdout.flush()
    if len(names) == 1:
        final = {k: outcomes[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {name: {k: o[k] for k in ("correct", "attempted", "failed", "metrics")}
                 for name, o in outcomes.items()}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
