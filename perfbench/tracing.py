"""Spans around every public function of the program, from outside it.

``from .x import f`` copies the name f into the importing module, so a call
through that module's global never sees a wrapper put on ``x.f``.  Tracer
therefore replaces every module attribute that binds a public gea function,
one shared wrapper per function object.  A span's layer is the module that
defines the function (``lp_feasible`` bound in ``gea.states`` is an lp span).

Spans live in flat lists while the run goes: name, start, end, parent span
and job.  A few functions also get a probe that keeps what the per-layer
counts need from their arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _lp_probe(args, kwargs, result):
    program = args[0]
    den_bits = max((v.denominator.bit_length() for v in result), default=0) if result else 0
    return {"rows": len(program.rows), "vars": program.n_vars,
            "feasible": result is not None, "den_bits": den_bits}


def _search_probe(args, kwargs, result):
    return {"pairs": len(result.provenance) + len(result.failures),
            "slots": len(result.states), "failures": len(result.failures)}


def _spectrum_probe(args, kwargs, result):
    return {"dim": args[0].dim}


def _random_gea_probe(args, kwargs, result):
    # Each accepted trial inserts one unordered nonzero pair {x, y}.
    accepted = sum(1 for (x, y) in result.sums if x != 0 and y != 0 and x <= y)
    return {"accepted": accepted}


PROBES: dict[str, Callable] = {
    "lp.lp_feasible": _lp_probe,
    "states.order_determining_set": _search_probe,
    "states.separating_set": _search_probe,
    "effects.hermitian_spectrum": _spectrum_probe,
    "generate.random_gea": _random_gea_probe,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.info: dict[int, dict] = {}
        self.job = -1
        self._stack: list[int] = []
        self._wrappers: dict[object, Callable] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.jobs.append(self.job)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if probe is not None:
                self.info[idx] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public gea function at every binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gea" or name.startswith("gea."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value) and value.__module__.startswith("gea.")
                        and not value.__name__.startswith("_")):
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value)
                setattr(module, attr, self._wrappers[value])
                self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def dump(self, path: Path, job_names: list[str]) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, job]."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "job"],
                                  "jobs": job_names}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.jobs):
                out.write(json.dumps(row) + "\n")


# Per-layer busy times: a span counts when no ancestor is in the same set, so
# nested or recursive calls are not counted twice.
BUSY = {
    "lp.busy_s": {"lp.lp_feasible"},
    "states.search.busy_s": {"states.order_determining_set", "states.separating_set"},
    "states.additivity_program.busy_s": {"states.additivity_program"},
    "algebra.check_gea_axioms.busy_s": {"algebra.check_gea_axioms"},
    "algebra.check_ea_axioms.busy_s": {"algebra.check_ea_axioms"},
    "algebra.induced_order.busy_s": {"algebra.induced_order"},
    "algebra.classify_morphism.busy_s": {"algebra.classify_morphism"},
    "represent.build.busy_s": {"represent.build_representation"},
    "represent.verify.busy_s": {"represent.verify_morphism", "represent.verify_injective",
                                "represent.verify_order_reflecting"},
    "represent.sampled.busy_s": {"represent.operator_norm", "represent.random_rational_vector",
                                 "represent.vector_state", "represent.bounded_by"},
    "effects.hermitian_spectrum.busy_s": {"effects.hermitian_spectrum"},
    "generate.random_gea.busy_s": {"generate.random_gea"},
    "fileio.load.busy_s": {"fileio.load_algebra", "fileio.load_morphism", "fileio.load_matrix"},
    "fileio.to_json.busy_s": {"fileio.witness_set_to_json", "fileio.representation_to_json",
                              "fileio.algebra_to_json"},
}
SELF = {"states.self_s": "states", "cli.self_s": "cli"}
CALLS = {
    "algebra.check_gea_axioms.calls": "algebra.check_gea_axioms",
    "algebra.induced_order.calls": "algebra.induced_order",
    "represent.vector_state.calls": "represent.vector_state",
    "effects.hermitian_spectrum.calls": "effects.hermitian_spectrum",
    "generate.random_gea.calls": "generate.random_gea",
    "cli.main.calls": "cli.main",
}
SEARCH = {"states.order_determining_set", "states.separating_set"}


def decile(values: list[float], d: int) -> float:
    """The d-th decile (d = 5 is the median), 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[d - 1]


class Analysis:
    """Per-layer metrics derived from one tracer's spans."""

    def __init__(self, tracer: Tracer, job_rounds: list[int]) -> None:
        self.t = tracer
        self.round_of = [job_rounds[j] for j in tracer.jobs]
        n = len(tracer.names)
        self.duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(tracer.parents):
            if p >= 0:
                child[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def _has_ancestor_in(self, i: int, names: set) -> bool:
        p = self.t.parents[i]
        while p >= 0:
            if self.t.names[p] in names:
                return True
            p = self.t.parents[p]
        return False

    def per_round(self, rounds: list[int], pick) -> list[float]:
        totals = dict.fromkeys(rounds, 0.0)
        for i, r in enumerate(self.round_of):
            if r in totals:
                value = pick(i)
                if value:
                    totals[r] += value
        return [totals[r] for r in rounds]

    def metrics(self, traced_rounds: list[int], first_round: int) -> dict[str, float]:
        t = self.t
        out: dict[str, float] = {}
        for metric, names in BUSY.items():
            out[metric] = statistics.median(self.per_round(
                traced_rounds, lambda i, names=names: self.duration[i]
                if t.names[i] in names and not self._has_ancestor_in(i, names) else 0.0))
        for metric, layer in SELF.items():
            prefix = layer + "."
            out[metric] = statistics.median(self.per_round(
                traced_rounds, lambda i, prefix=prefix: self.self_time[i]
                if t.names[i].startswith(prefix) else 0.0))
        out["lp.infeasible.busy_s"] = statistics.median(self.per_round(
            traced_rounds, lambda i: self.duration[i]
            if t.names[i] == "lp.lp_feasible" and not t.info[i]["feasible"] else 0.0))

        lp_all = [i for i, name in enumerate(t.names) if name == "lp.lp_feasible"]
        calls = [self.duration[i] for i in lp_all]
        out["lp.call_s.p50"] = decile(calls, 5)
        out["lp.call_s.p90"] = decile(calls, 9)

        # Counts come from the first round alone: its inputs depend only on
        # the seed, so every count repeats exactly across runs of one seed.
        first = [i for i, r in enumerate(self.round_of) if r == first_round]
        named = defaultdict(list)
        for i in first:
            named[t.names[i]].append(i)
        for metric, name in CALLS.items():
            out[metric] = len(named[name])
        lp = [t.info[i] for i in named["lp.lp_feasible"]]
        out["lp.calls"] = len(lp)
        out["lp.rows"] = sum(x["rows"] for x in lp)
        out["lp.rows_max"] = max((x["rows"] for x in lp), default=0)
        out["lp.vars_max"] = max((x["vars"] for x in lp), default=0)
        out["lp.den_bits_max"] = max((x["den_bits"] for x in lp), default=0)
        out["lp.feasible_ratio"] = sum(x["feasible"] for x in lp) / len(lp) if lp else 0.0
        searches = [t.info[i] for name in SEARCH for i in named[name]]
        pairs = sum(x["pairs"] for x in searches)
        lp_in_search = sum(1 for i in named["lp.lp_feasible"]
                           if self._has_ancestor_in(i, SEARCH))
        out["states.pairs"] = pairs
        out["states.lp_per_pair"] = lp_in_search / pairs if pairs else 0.0
        out["states.witness_slots"] = sum(x["slots"] for x in searches)
        out["states.failures"] = sum(x["failures"] for x in searches)
        out["effects.dim_max"] = max((t.info[i]["dim"] for i in named["effects.hermitian_spectrum"]),
                                     default=0)
        trials = sum(1 for i in named["algebra.check_gea_axioms"]
                     if t.parents[i] >= 0 and t.names[t.parents[i]] == "generate.random_gea")
        accepted = sum(t.info[i]["accepted"] for i in named["generate.random_gea"])
        out["generate.trial_scans"] = trials
        out["generate.accept_ratio"] = accepted / trials if trials else 0.0
        return out

    def calls_per_job(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for i, n in enumerate(self.t.names):
            if n == name:
                counts[self.t.jobs[i]] += 1
        return dict(counts)
