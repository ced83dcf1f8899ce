"""Command line front end: parse reads a command line off the COMMANDS table,
with the syntax argparse read, and main runs the command's handler.  Only
the effects handlers import numpy and gea.effects, on first use, so the
exact commands start without them.

Each pipeline scans its table's axioms once, at load, and hands the resulting
CheckedGEA to every later stage.  Each input file is read once, and
input_digest is the SHA-256 of the bytes parsed.

Exit codes: 0 success, 1 a verification stage failed, 2 unreadable or
malformed input, 3 no witness set exists for the requested goal.  Every
report, an error report too, carries its exit code and goes to --out.

A command runs with the cyclic garbage collector off, since nothing it
builds forms a reference cycle, and main turns the collector back on after
it only if it was on before, so an in-process caller keeps its setting.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Optional

from . import fileio
from .algebra import (CheckedGEA, check_ea_axioms, check_gea_axioms, classify_morphism,
                      scan_gea)
from .errors import ContractError, InputError
from .represent import (build_representation, operator_norm, verify_injective, verify_morphism,
                        verify_order_reflecting)
from .states import order_determining_set, separating_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_WITNESS = 3


def _base_report(args: SimpleNamespace, path: Optional[str], digest: Optional[str]) -> dict:
    report = {"schema": 1, "command": args.command_echo}
    if path is not None:
        report["input"] = path
        report["input_digest"] = digest
    return report


def _render_text(value) -> str:
    """The text form of a report: one line per scalar, nested containers
    indented by two spaces, and a list of scalars in a dict on one line,
    each scalar, list or key (less its quotes) as json.dumps writes it."""
    lines: list[str] = []
    _text_lines(value, "", lines)
    return "\n".join(lines)


def _text_lines(value, pad: str, lines: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "{}")
        for key, item in value.items():
            name = pad + json.dumps(key)[1:-1]
            if isinstance(item, list) and all(not isinstance(x, (dict, list)) for x in item):
                lines.append(f"{name}: {json.dumps(item)}")
            elif isinstance(item, (dict, list)) and item:
                lines.append(f"{name}:")
                _text_lines(item, pad + "  ", lines)
            else:
                lines.append(f"{name}: {json.dumps(item)}")
    elif isinstance(value, list):
        if not value:
            lines.append(pad + "[]")
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(pad + "-")
                _text_lines(item, pad + "  ", lines)
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(pad + json.dumps(value))


def _emit(report: dict, as_json: bool, out: Optional[str] = None) -> None:
    payload = None
    if as_json or out is not None:
        payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if out is not None:
        try:
            Path(out).write_text(payload + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    _write(payload if as_json else _render_text(report))


def _write(text: str) -> None:  # in one write
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`gea ... | head`).  Point stdout at
        # devnull, as the signal module docs advise, so that the flush at
        # exit cannot fail again; the exit code still reports the pipeline.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _axiom_stage(report_obj) -> dict:
    return {
        "passed": report_obj.passed,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "message": v.message}
            for v in report_obj.violations
        ],
    }


def _load_checked(args: SimpleNamespace) -> tuple[dict, Optional[CheckedGEA]]:
    """Load the table and run the pipeline's one GEA axiom scan: the report
    with its gea stage, and the checked table unless the scan failed."""
    table, digest = fileio.load_algebra(args.path)
    axioms, gea = scan_gea(table)
    report = _base_report(args, args.path, digest)
    report["gea"] = _axiom_stage(axioms)
    return report, gea


def cmd_check(args: SimpleNamespace) -> tuple[dict, int]:
    table, digest = fileio.load_algebra(args.path)
    axioms = check_gea_axioms(table)
    report = _base_report(args, args.path, digest)
    report["gea"] = _axiom_stage(axioms)
    failed = not axioms.passed
    if args.ea:
        ea = check_ea_axioms(table, axioms)
        report["ea"] = _axiom_stage(ea)
        failed = failed or not ea.passed
    return report, EXIT_FAIL if failed else EXIT_OK


def cmd_order(args: SimpleNamespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    labels = gea.table.elements
    # x_i + x_k = x_j gives x_j - x_i = x_k, unique by GE3 on a checked table.
    # The sums come in (i, k) order, so each bucket j is in (j, i) order.
    below: list[list[tuple[int, int]]] = [[] for _ in labels]
    for i, (row, c) in enumerate(zip(gea.table.rows, gea.table.cols)):
        for k in c:
            below[row[k]].append((i, k))
    # Row i's values are the elements above i, distinct by GE3; i + 0 is i.
    report["order"] = {
        "strictly_below": [[labels[i], labels[j]]
                           for i, (row, c) in enumerate(zip(gea.table.rows, gea.table.cols))
                           for j in sorted(map(row.__getitem__, c)) if j != i],
        "differences": {f"{labels[j]},{labels[i]}": labels[k]
                        for j, pairs in enumerate(below) for i, k in pairs},
    }
    return report, EXIT_OK


def cmd_states(args: SimpleNamespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    witnesses = order_determining_set(gea) if args.goal == "order" else separating_set(gea)
    report["witnesses"] = fileio.witness_set_to_json(gea.table, witnesses)
    return report, EXIT_OK if witnesses.ok else EXIT_NO_WITNESS


def cmd_represent(args: SimpleNamespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    table = gea.table
    witnesses = order_determining_set(gea) if args.goal == "order" else separating_set(gea)
    report["witnesses"] = fileio.witness_set_to_json(table, witnesses)
    if not witnesses.ok:
        report["verdict"] = (f"no {args.goal} witness set exists; "
                             f"obstructing pairs: {report['witnesses']['failures']}")
        return report, EXIT_NO_WITNESS

    rep = build_representation(gea, witnesses.states)
    morphism, _ = verify_morphism(rep, table)
    injective, _ = verify_injective(rep)
    order_reflecting, _ = verify_order_reflecting(rep, gea)
    norms = operator_norm(rep)
    verification = {
        "morphism": morphism,
        "injective": injective,
        "order_reflecting": order_reflecting,
        "bounds": dict(zip(table.elements, fileio.ratio_strs(norms, rep.den))),
        # These three keep the report's bytes.  The build rejects a negative
        # value, so every phi(a) is positive and bounded by its largest entry.
        "sampled_vectors": 20,
        "seed": args.seed,
        "sampled_ok": True,
    }
    required = [morphism, injective]
    if args.goal == "order":
        required.append(order_reflecting)
    report["representation"] = fileio.representation_to_json(table, rep, verification)
    return report, EXIT_OK if all(required) else EXIT_FAIL


def cmd_morphism(args: SimpleNamespace) -> tuple[dict, int]:
    spec, digest = fileio.load_morphism(args.path)
    report = _base_report(args, args.path, digest)
    result = classify_morphism(spec)
    report["morphism"] = {
        "is_morphism": result.is_morphism,
        "injective": result.injective,
        "order_reflecting": result.order_reflecting,
        "embedding": result.embedding,
    }
    if result.failure is not None:
        report["morphism"]["failure"] = [spec.source.table.elements[i]
                                         for i in result.failure]
    return report, EXIT_OK if result.is_morphism else EXIT_FAIL


def cmd_effects_demo(args: SimpleNamespace) -> tuple[dict, int]:
    from . import effects  # the effects commands alone load numpy

    demo = effects.demo_excd()
    report = _base_report(args, None, None)
    report["demo"] = demo
    # gea_axioms_pass is always true, and order_determining_found is the
    # representation's order_reflecting, which all() reads.
    expected = (demo["is_morphism"] and demo["order_reflecting"] and not demo["embedding"]
                and all(demo["representation"].values()))
    return report, EXIT_OK if expected else EXIT_FAIL


def cmd_effects_check(args: SimpleNamespace) -> tuple[dict, int]:
    from . import effects

    matrix, digest = fileio.load_matrix(args.path)
    report = _base_report(args, args.path, digest)
    try:
        positive, effect, defect = effects.spectral_flags(matrix)
    except InputError as exc:
        raise InputError(f"{args.path}: {exc}") from None
    report["matrix"] = {
        "dim": matrix.dim,
        "hermitian_defect": defect,
        "positive": positive,
        "effect": effect,
    }
    return report, EXIT_OK if positive else EXIT_FAIL


def cmd_effects_witness(args: SimpleNamespace) -> tuple[dict, int]:
    from . import effects

    a, digest = fileio.load_matrix(args.path)
    b, digest_b = fileio.load_matrix(args.path_b)
    report = _base_report(args, args.path, digest)
    report.update(input_b=args.path_b, input_b_digest=digest_b)
    witness = effects.vector_witness(a, b, (f"A ({args.path})", f"B ({args.path_b})"))
    if witness is None:
        report["witness"] = None
        report["a_below_b"] = True
    else:
        report["witness"] = {"re": witness.real.tolist(), "im": witness.imag.tolist()}
        report["a_below_b"] = False
        inner_a = effects.generalized_vector_state(witness, a)
        inner_b = effects.generalized_vector_state(witness, b)
        report["inner_products"] = {"a": inner_a, "b": inner_b}
        if not inner_a - inner_b > 0:
            report["verdict"] = ("verification failed: <x,Ax> - <x,Bx> = "
                                 f"{inner_a - inner_b!r} is not positive")
            return report, EXIT_FAIL
    return report, EXIT_OK


# Each command's words to its handler, positionals, switches, options (name
# to default and choices or type) and help line.  SEARCH holds the options of
# the two witness-search commands.
SEARCH = {"goal": ("order", ("separate", "order")), "out": (None, str)}
COMMANDS = {
    "check": (cmd_check, ("path",), ("ea",), {}, "verify the axioms of a table file"),
    "order": (cmd_order, ("path",), (), {}, "print the induced partial order"),
    "states": (cmd_states, ("path",), (), SEARCH, "compute a witness set of generalized states"),
    "represent": (cmd_represent, ("path",), (), SEARCH, "build and verify the representation"),
    "morphism": (cmd_morphism, ("path",), (), {}, "classify a map between two table files"),
    "effects demo-excd": (cmd_effects_demo, (), (), {}, "run the projector demo end to end"),
    "effects check": (cmd_effects_check, ("path",), (), {},
                      "positivity/effect check for a matrix file"),
    "effects witness": (cmd_effects_witness, ("path", "path_b"), (), {},
                        "order witness of two matrices"),
}


def _usage() -> str:
    lines = ["usage: gea [-h] [--json] [--seed N] COMMAND ...\n  --json prints the report as "
             "JSON; --seed N is echoed in represent reports (default 0)"]
    for words, (_, names, switches, options, help_line) in COMMANDS.items():
        flags = [*switches, *(f"{o} {'|'.join(k) if isinstance(k, tuple) else o.upper()}"
                              for o, (_, k) in options.items())]
        lines.append(" ".join([f"  {words}", *map(str.upper, names), *(f"[--{f}]" for f in flags)])
                     + f"\n      {help_line}")
    return "\n".join(lines)


def _fail(message: str) -> NoReturn:
    sys.stderr.write(f"{_usage()}\ngea: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, known: dict) -> tuple[Optional[str], Optional[str]]:
    """The flag of known that token names, whole or by a unique prefix of a --name,
    and its =value; ("", None) for an unknown flag, and (None, None) for a
    positional, which as in argparse includes a negative number or a token with a space."""
    if token[:1] != "-" or token == "-":
        return None, None
    name, eq, value = token.partition("=")
    matches = [name] if name in known else [
        flag for flag in known if token[1] == "-" and flag.startswith(name)]
    if len(matches) == 1:
        return matches[0], value if eq else None
    return (None, None) if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ("", None)


def parse(argv: list[str]) -> SimpleNamespace:
    """argv read off COMMANDS as argparse read it, into the attributes the handlers
    read.  A line that does not fit prints the usage and exits 2; -h prints it."""
    args = SimpleNamespace(func=None, path=None, path_b=None, ea=None, goal=None, out=None,
                           json=False, seed=0)
    # Each flag to True for a switch, None for help, or its choices or type.
    known = {"--json": True, "--seed": int, "-h": None, "--help": None}
    # given: the positionals with the surplus tokens among them, in command-line order.
    words, spec, positionals, given, tokens, filled = [], None, [], [], iter(argv), 0
    for token in tokens:
        after_path, filled = len(positionals) > filled, len(positionals)
        name, value = _option(token, known)
        if token == "--" and spec:  # argparse drops it only beside a positional
            rest = list(tokens)
            given += ([] if after_path or rest and filled < len(spec[1]) else [token]) + rest
            positionals += rest
        elif name is None and spec:
            positionals.append(token)
            given.append(token)
        elif name is None or token == "--":
            words.append(token)
            spec = COMMANDS.get(" ".join(words)) if " " not in token else None
            if spec is None and words != ["effects"]:
                _fail(f"invalid command {' '.join(words)!r}")
            if spec:
                args.func = spec[0]
                for flag, (default, kind) in [*((s, (False, True)) for s in spec[2]),
                                              *spec[3].items()]:
                    known["--" + flag] = kind
                    setattr(args, flag, default)
        elif not name:
            given.append(token)
        elif (kind := known[name]) in (None, True) and value is not None:
            _fail(f"argument {name}: ignored explicit argument {value!r}")
        elif kind is None:
            _write(_usage())
            raise SystemExit(0)
        elif kind is True:
            setattr(args, name[2:], True)
        else:
            # A value comes from the next token unless that is a flag; -- stands in for none.
            if value is None and _option(value := next(tokens, "--"), known)[0] is not None:
                _fail(f"argument {name}: expected one argument")
            try:  # index raises ValueError for a value that is not a choice
                setattr(args, name[2:], kind(value) if callable(kind) else kind[kind.index(value)])
            except ValueError:
                _fail(f"argument {name}: invalid value {value!r}")
    names = spec[1] if spec else _fail("missing command")
    if len(positionals) != len(names) or given != positionals:
        _fail(f"{' '.join(words)} takes {' '.join(names).upper() or 'no path'}; got {given}")
    vars(args).update(zip(names, positionals))
    return args


def _error_report(args: SimpleNamespace, error: object) -> dict:
    return {**_base_report(args, None, None), "error": str(error)}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse(argv)
    args.command_echo = "gea " + " ".join(argv)
    # No command makes a reference cycle: a collector pass would only walk its table.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            report, code = args.func(args)
        except InputError as exc:
            report, code = _error_report(args, exc), EXIT_INPUT
        except (ContractError, AssertionError) as exc:
            report, code = _error_report(args, exc), EXIT_FAIL
        report["exit"] = code
        try:
            _emit(report, args.json, args.out)
        except InputError as exc:  # the --out file cannot be written
            error = "; ".join(filter(None, (report.get("error"), str(exc))))  # keep the first error
            _emit({**_error_report(args, error), "exit": EXIT_INPUT}, args.json)
            return EXIT_INPUT
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
