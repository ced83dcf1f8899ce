"""Run one workload in this process and write its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result FILE

run.py starts this in a fresh single-threaded interpreter; it is not meant
to be called by hand.  It imports gea from the src/ directory next to
perfbench/, runs rounds (see workloads.py) until --seconds have passed and
at least MIN_JOBS jobs ran, then checks every output.

A round is a closed loop with one client: each job starts when the previous
one has returned.  Between jobs, at most every PROBE_EVERY_S, the worker
times a fixed piece of reference work (calibrate.py); the round's times are
scaled by the median of its probes, so that the metrics do not move with the
shared host's speed.  The unscaled times are kept under "raw" in the result.
Untraced, every round is measured.  Traced, rounds
alternate between traced (even) and untraced (odd), so the same process
gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_JOBS = 100       # so that job_s.p90 has at least ten samples beyond it
HARD_STOP_S = 120.0  # start no round after this, whatever MIN_JOBS says
PROBE_EVERY_S = 0.05  # run the speed probe after the first job that ends later


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gea.cli
    import gea.generate

    if Path(gea.__file__).resolve().parent != src / "gea":
        raise SystemExit(f"gea imported from {gea.__file__}, not from {src}")
    return gea


def _round_median(seconds: list[float], job_info: list[tuple]) -> float:
    """Median over rounds of the median job of the round.

    Pooled over the run, the median of a round with an even number of jobs
    falls in the gap between two kinds of job and reads the extremes of
    both; per round it reads the two middle jobs, and the median over rounds
    steadies it."""
    per_round: dict[int, list[float]] = {}
    for t, (_, number, _) in zip(seconds, job_info):
        per_round.setdefault(number, []).append(t)
    return statistics.median(statistics.median(v) for v in per_round.values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--max-rounds", type=int, default=None)
    args = parser.parse_args()

    gea = _import_program()
    import calibrate
    import tracing
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    max_rounds = min(args.max_rounds or workloads.MAX_ROUNDS, workloads.MAX_ROUNDS)

    job_seconds: list[float] = []      # scaled to reference speed (calibrate.py)
    raw_job_seconds: list[float] = []
    job_info: list[tuple[str, int, object]] = []  # name, round, exit code
    rounds: list[dict] = []
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    number = 0
    while number < max_rounds:
        elapsed = time.perf_counter() - started
        # Two rounds at least, so a traced run has an untraced round to
        # compare with.
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and attempted >= MIN_JOBS
                                      and number >= 2):
            break
        jobs = workloads.build_round(args.workload, args.seed, number, ROOT, workdir, expected)
        traced = tracer is not None and number % 2 == 0
        if traced:
            tracer.install()
        outputs = []
        samples = [calibrate.probe()]
        probed = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = attempted + len(outputs)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = job.run(gea)
            except Exception:  # a crash is a failed job, reported below
                out = (None, traceback.format_exc())
            t1, c1 = time.perf_counter(), time.process_time()
            outputs.append((t1 - t0, c1 - c0, out))
            if t1 - probed >= PROBE_EVERY_S:
                samples.append(calibrate.probe())
                probed = time.perf_counter()
        samples.append(calibrate.probe())
        if traced:
            tracer.uninstall()
        wall_scale, cpu_scale = calibrate.scale(samples)
        wall = sum(w for w, _, _ in outputs)
        cpu_time = sum(c for _, c, _ in outputs)

        for job, (seconds, _, (code, text)) in zip(jobs, outputs):
            job_info.append((job.name, number, code))
            attempted += 1
            job_seconds.append(seconds * wall_scale)
            raw_job_seconds.append(seconds)
            try:
                problem = (f"raised {text.strip().splitlines()[-1]}" if code is None
                           else job.check(code, text))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problem = f"report does not parse as expected: {exc!r}"
            if problem:
                failures.append(f"round {number} {job.name}: {problem}")
        report_bytes = sum(len(text.encode()) for job, (_, _, (_, text)) in zip(jobs, outputs)
                           if job.argv is not None)
        rounds.append({"wall_s": wall * wall_scale, "cpu_s": cpu_time * cpu_scale,
                       "raw_wall_s": wall, "raw_cpu_s": cpu_time, "traced": traced,
                       "report_bytes": report_bytes})
        number += 1
    shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": len(rounds),
        "jobs_per_round": attempted // len(rounds),
        "measured_s": time.perf_counter() - started,
        "metrics": {
            "job_s.p50": _round_median(job_seconds, job_info),
            "job_s.p90": tracing.decile(job_seconds, 9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # The same timings before scaling to reference speed.
        "raw": {
            "job_s.p50": _round_median(raw_job_seconds, job_info),
            "job_s.p90": tracing.decile(raw_job_seconds, 9),
        },
    }
    if plain:
        for key in ("wall_s", "cpu_s"):
            result["metrics"][key] = statistics.median(r[key] for r in plain)
            result["raw"][key] = statistics.median(r["raw_" + key] for r in plain)
    if tracer is not None:
        traced_rounds = [i for i, r in enumerate(rounds) if r["traced"]]
        analysis = tracing.Analysis(tracer, [r for _, r, _ in job_info])
        layer = analysis.metrics(traced_rounds, traced_rounds[0])
        layer["fileio.report_bytes"] = rounds[traced_rounds[0]]["report_bytes"]
        # Raw seconds, like the span times; both medians come from one run.
        layer["trace.wall_s"] = statistics.median(rounds[i]["raw_wall_s"] for i in traced_rounds)
        if plain:
            layer["trace.overhead_s"] = layer["trace.wall_s"] - result["raw"]["wall_s"]
        result["layer"] = layer
        result["gea_calls_per_job"] = analysis.calls_per_job("algebra.check_gea_axioms")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(spans, [name for name, _, _ in job_info])
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.names)
    result["jobs"] = job_info
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
