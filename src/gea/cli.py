"""Command line front end.

Pipeline subcommands: check (axioms), order (induced order), states (witness
search), represent (witness search plus verified diagonal representation),
morphism (classify a map between two tables) and effects (finite-dimensional
matrix demos).

Each pipeline scans its table's axioms once, at load, and hands the
resulting CheckedGEA to every later stage.

Exit codes: 0 success, 1 a verification stage failed, 2 unreadable or
malformed input, 3 no witness set exists for the requested goal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import effects, fileio
from .algebra import (CheckedGEA, check_ea_axioms, check_gea_axioms, classify_morphism,
                      scan_gea)
from .errors import ContractError, InputError
from .represent import (build_representation, operator_norm, sampled_check,
                        verify_injective, verify_morphism, verify_order_reflecting)
from .states import StateWitnessSet, order_determining_set, separating_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_WITNESS = 3

SAMPLE_VECTORS = 20


def _digest(path: str) -> Optional[str]:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _base_report(args: argparse.Namespace, path: Optional[str]) -> dict:
    report = {"schema": 1, "command": args.command_echo}
    if path is not None:
        report["input"] = path
        report["input_digest"] = _digest(path)
    return report


def _scalar(value) -> str:
    return json.dumps(value)


def _render_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return pad + "{}"
        lines = []
        for key, item in value.items():
            if isinstance(item, list) and all(not isinstance(x, (dict, list)) for x in item):
                lines.append(f"{pad}{key}: {_scalar(item)}")
            elif isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
        return "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return pad + "[]"
        lines = []
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(pad + "-")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
        return "\n".join(lines)
    return pad + _scalar(value)


def _emit(report: dict, as_json: bool, out: Optional[str] = None) -> None:
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if out:
        try:
            Path(out).write_text(payload + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    try:
        print(payload if as_json else _render_text(report), flush=True)
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


def _load_checked(args: argparse.Namespace) -> tuple[dict, Optional[CheckedGEA]]:
    """Load the table and run the pipeline's one GEA axiom scan: the report
    with its gea stage, and the checked table unless the scan failed."""
    axioms, gea = scan_gea(fileio.load_algebra(args.path))
    report = _base_report(args, args.path)
    report["gea"] = _axiom_stage(axioms)
    return report, gea


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    table = fileio.load_algebra(args.path)
    axioms = check_gea_axioms(table)
    report = _base_report(args, args.path)
    report["gea"] = _axiom_stage(axioms)
    failed = not axioms.passed
    if args.ea:
        ea = check_ea_axioms(table)
        report["ea"] = _axiom_stage(ea)
        failed = failed or not ea.passed
    return report, EXIT_FAIL if failed else EXIT_OK


def cmd_order(args: argparse.Namespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    order = gea.order
    labels = gea.table.elements
    report["order"] = {
        "strictly_below": [[labels[i], labels[j]]
                           for i in range(order.n) for j in range(order.n)
                           if i != j and order.leq(i, j)],
        "differences": {f"{labels[j]},{labels[i]}": labels[k]
                        for (j, i), k in sorted(order.diff.items())},
    }
    return report, EXIT_OK


def _witness_stage(gea: CheckedGEA, goal: str) -> tuple[StateWitnessSet, dict]:
    witnesses = order_determining_set(gea) if goal == "order" else separating_set(gea)
    return witnesses, fileio.witness_set_to_json(gea.table, witnesses)


def cmd_states(args: argparse.Namespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    witnesses, stage_json = _witness_stage(gea, args.goal)
    report["witnesses"] = stage_json
    return report, EXIT_OK if witnesses.ok else EXIT_NO_WITNESS


def _verified_representation(gea: CheckedGEA, witnesses: StateWitnessSet,
                             goal: str, seed: int) -> tuple[dict, bool]:
    table = gea.table
    rep = build_representation(gea, witnesses)
    morphism = verify_morphism(rep, table)
    injective, _ = verify_injective(rep)
    order_reflecting, _ = verify_order_reflecting(rep, gea)

    norms = [operator_norm(rep, a) for a in range(table.n)]
    sampled_ok = sampled_check(rep, random.Random(seed), SAMPLE_VECTORS, norms)

    verification = {
        "morphism": morphism.passed,
        "injective": injective,
        "order_reflecting": order_reflecting,
        "bounds": {label: fileio.frac_str(norm)
                   for label, norm in zip(table.elements, norms)},
        "sampled_vectors": SAMPLE_VECTORS,
        "seed": seed,
        "sampled_ok": sampled_ok,
    }
    required = [morphism.passed, injective, sampled_ok]
    if goal == "order":
        required.append(order_reflecting)
    return fileio.representation_to_json(rep, verification), all(required)


def cmd_represent(args: argparse.Namespace) -> tuple[dict, int]:
    report, gea = _load_checked(args)
    if gea is None:
        return report, EXIT_FAIL
    witnesses, stage_json = _witness_stage(gea, args.goal)
    report["witnesses"] = stage_json
    if not witnesses.ok:
        report["verdict"] = (f"no {args.goal} witness set exists; "
                             f"obstructing pairs: {stage_json['failures']}")
        return report, EXIT_NO_WITNESS
    rep_json, verified = _verified_representation(gea, witnesses, args.goal, args.seed)
    report["representation"] = rep_json
    return report, EXIT_OK if verified else EXIT_FAIL


def cmd_morphism(args: argparse.Namespace) -> tuple[dict, int]:
    spec = fileio.load_morphism(args.path)
    report = _base_report(args, args.path)
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


def cmd_effects(args: argparse.Namespace) -> tuple[dict, int]:
    if args.effects_command == "demo-excd":
        demo = effects.demo_excd()
        report = _base_report(args, None)
        report["demo"] = demo
        expected = (demo["gea_axioms_pass"] and demo["order_determining_found"]
                    and demo["is_morphism"] and demo["order_reflecting"]
                    and not demo["embedding"])
        return report, EXIT_OK if expected else EXIT_FAIL

    if args.effects_command == "check":
        matrix = fileio.load_matrix(args.path)
        report = _base_report(args, args.path)
        positive, effect = effects.spectral_flags(matrix)
        report["matrix"] = {
            "dim": matrix.dim,
            "hermitian_defect": matrix.hermitian_defect(),
            "positive": positive,
            "effect": effect,
        }
        return report, EXIT_OK if positive else EXIT_FAIL

    a = fileio.load_matrix(args.path)
    b = fileio.load_matrix(args.path_b)
    report = _base_report(args, args.path)
    report["input_b"] = args.path_b
    report["input_b_digest"] = _digest(args.path_b)
    witness = effects.vector_witness(a, b)
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


def _env_seed() -> int:
    text = os.environ.get("GEA_SEED", "0")
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"GEA_SEED must be an integer, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    # The shared flags are accepted both before and after the subcommand.
    # Every parser shares the same two actions, so their default must stay
    # SUPPRESS: any other default would be written by the subcommand's parser
    # over a pre-command occurrence.  main fills in the defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the machine-readable report")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled self-checks (default: $GEA_SEED or 0)")

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
    d.set_defaults(func=cmd_effects)
    c = esub.add_parser("check", parents=[common],
                        help="positivity/effect check for a matrix file")
    c.add_argument("path")
    c.set_defaults(func=cmd_effects)
    w = esub.add_parser("witness", parents=[common],
                        help="order witness vector for two positive matrices")
    w.add_argument("path")
    w.add_argument("path_b")
    w.set_defaults(func=cmd_effects)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: building it costs more
    than parsing, and parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args.command_echo = "gea " + " ".join(argv)
    args.json = getattr(args, "json", False)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _env_seed()
        report, code = args.func(args)
        report["exit"] = code
        _emit(report, args.json, getattr(args, "out", None))
        return code
    except InputError as exc:
        _emit({"schema": 1, "command": args.command_echo, "error": str(exc)},
              args.json)
        return EXIT_INPUT
    except (ContractError, AssertionError) as exc:
        _emit({"schema": 1, "command": args.command_echo, "error": str(exc)},
              args.json)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
