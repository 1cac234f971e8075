"""Command-line interface: solving, translating, oracle queries, and
trace checking.

Exit codes: 10 model found, 20 unsatisfiable, 0 other commands, 1 input
error or invalid trace, 2 limit or budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import engine, oracles, translations
from .model import CapExceeded, Clause, Literal, SmaspTheory, duals, positive_part
# read by perfbench/harness.py; the package itself asks oracles.at_desk_scale
from .oracles import DESK_CHECK_ATOM_LIMIT as ORACLE_CHECK_ATOM_LIMIT
from .parsing import (
    ParseError,
    format_clause,
    format_literals,
    format_program,
    parse_dimacs,
    parse_goal,
    parse_literal_token,
    parse_lp,
    parse_pcid,
    parse_smasp,
    quote,
)
from .trace import load_trace, trace_from_outcome, validate_trace, write_trace

EXIT_MODEL = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_LIMIT = 2


class InputError(Exception):
    pass


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def build_theory(mode: str, fmt: str, text: str):
    """Map an input to the clause/program pairing its mode searches.

    Returns the theory plus how to report models: as full literal lines
    or as the positive-atom projection, restricted to the user atoms of
    the original input.
    """
    return _build(mode, fmt, text)[:3]


def _build(mode: str, fmt: str, text: str):
    """:func:`build_theory`'s values and a pcid input's parsed theory."""
    if fmt == "cnf":
        theory = SmaspTheory(parse_dimacs(text))
        return theory, "literals", theory.atoms, None
    if fmt not in ("lp", "pcid"):
        raise InputError(f"unknown input format: {fmt!r}")
    if mode == "dpll":
        raise InputError("mode dpll solves plain CNF only; use --format cnf")
    complete = translations.completion if mode == "smodels" else translations.ed_completion
    if fmt == "lp":
        program = parse_lp(text)
        return SmaspTheory(complete(program), program), "atoms", program.atoms, None
    pcid, extra = parse_pcid(text), ()
    if mode == "minisatid":
        program, extra = translations.open_program(pcid.program, pcid.atoms), pcid.clauses
    else:
        program = translations.pi_translation(pcid)
    return SmaspTheory(complete(program) + extra, program), "literals", pcid.atoms, pcid


def _format_model(model: frozenset[Literal], kind: str, atoms, raw: bool) -> str:
    if raw:
        return format_literals(model)
    keep = set(atoms)
    if kind == "atoms":
        names = sorted(a.name for a in positive_part(model) if a in keep)
        return " ".join(names)
    return format_literals(l for l in model if l.atom in keep)


def _cross_check_unsat(theory: SmaspTheory) -> None:
    if not oracles.at_desk_scale(theory):
        return
    models = oracles.enumerate_smasp_models(theory)
    if models:
        raise engine.SelfCheckError(
            "engine reported unsatisfiable but the oracle found a model: "
            + format_literals(models[0]))


def _cmd_solve(args) -> int:
    if args.enumerate < 1:
        raise InputError(f"--enumerate needs K >= 1, got {args.enumerate}")
    if args.max_steps < 0:
        raise InputError(f"--max-steps needs N >= 0, got {args.max_steps}")
    if args.enumerate > 1 and args.trace:
        raise InputError("--trace supports single-model solving only")
    theory, report_kind, report_atoms, pcid = _build(args.mode, args.format, _read(args.input))

    if args.self_check and pcid is not None and args.mode == "minisatid":
        if not oracles.at_desk_scale(pcid):
            limit = oracles.DESK_CHECK_ATOM_LIMIT
            print(f"totality not checked: {len(pcid.atoms)} atoms,"
                  f" above the desk-scale limit of {limit}", file=sys.stderr)
        elif not oracles.is_total(pcid):
            print("input theory is not total; this pipeline requires totality",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR

    found = 0
    current = theory
    remaining = args.enumerate
    while remaining > 0:
        outcome = engine.run(current, args.mode, max_steps=args.max_steps,
                             self_check=True if args.self_check else None)
        if found == 0 and args.trace:
            write_trace(args.trace, trace_from_outcome(outcome, args.mode, theory))
        if outcome.verdict == engine.VERDICT_LIMIT:
            print("LIMIT EXCEEDED")
            return EXIT_LIMIT
        if outcome.verdict == engine.VERDICT_UNSAT:
            if args.self_check and found == 0:
                _cross_check_unsat(current)
            break
        assert outcome.model is not None
        found += 1
        print("MODEL")
        print(_format_model(outcome.model, report_kind, report_atoms, args.raw))
        remaining -= 1
        if remaining == 0 or not outcome.model:
            break
        blocking = Clause(tuple(duals(outcome.model)))
        current = SmaspTheory(current.clauses + (blocking,), current.program)

    if found:
        return EXIT_MODEL
    print("UNSATISFIABLE")
    return EXIT_UNSAT


def _cmd_translate(args) -> int:
    text = _read(args.input)
    if args.to == "pi":
        print(format_program(translations.pi_translation(parse_pcid(text))))
        return EXIT_OK
    program = parse_lp(text)
    if args.to == "cl":
        clauses = translations.clausal(program)
    elif args.to == "comp":
        clauses = translations.completion(program)
    elif args.to == "edcomp":
        clauses = translations.ed_completion(program)
    elif args.to == "open":
        print(format_program(translations.open_program(program, program.atoms)))
        return EXIT_OK
    else:
        raise InputError(f"unknown translation target: {args.to!r}")
    for c in clauses:
        print(format_clause(c))
    return EXIT_OK


def _parse_assumptions(text: Optional[str]) -> frozenset[Literal]:
    if not text:
        return frozenset()
    return frozenset(parse_literal_token(tok) for tok in text.split(",") if tok.strip())


def _cmd_oracle(args) -> int:
    text = _read(args.input)
    task = args.task
    if task == "answer-sets":
        program = parse_lp(text)
        for x in oracles.enumerate_answer_sets(program):
            print("{" + " ".join(sorted(a.name for a in x)) + "}")
        return EXIT_OK
    if task == "wfm":
        wfm = oracles.well_founded_model(parse_lp(text))
        print(format_literals(wfm.literals))
        return EXIT_OK
    if task == "gus":
        program = parse_lp(text)
        assumed = _parse_assumptions(args.assume)
        gus = oracles.greatest_unfounded_set(assumed, program)
        print("{" + " ".join(sorted(a.name for a in gus)) + "}")
        return EXIT_OK
    if task == "smasp-models":
        theory = parse_smasp(text)
        for m in oracles.enumerate_smasp_models(theory):
            print(format_literals(m))
        return EXIT_OK
    if task == "pcid-models":
        theory = parse_pcid(text)
        for m in oracles.enumerate_pcid_models(theory):
            print(format_literals(m))
        return EXIT_OK
    if task == "entails":
        if not args.goal:
            raise InputError("--goal is required for the entails task")
        theory = parse_smasp(text)
        goal = parse_goal(args.goal)
        print("yes" if oracles.entails(theory, goal) else "no")
        return EXIT_OK
    raise InputError(f"unknown oracle task: {task!r}")


def _cmd_check_trace(args) -> int:
    trace = load_trace(_read(args.trace))
    if trace.header.mode not in engine.MODES:
        raise InputError(f"trace header carries unknown mode: {quote(trace.header.mode)}")
    text = _read(args.input)
    theory, _, _ = build_theory(trace.header.mode, args.format, text)
    result = validate_trace(trace, theory, trace.header.mode,
                            strict_strategy=args.strict_strategy)
    if result.ok:
        print("valid")
        return EXIT_OK
    print(f"invalid at step {result.step_index}: {result.reason}")
    return EXIT_INPUT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smasp",
        description="Solve, translate, and inspect clause/program theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="search for a model")
    solve.add_argument("--mode", required=True, choices=engine.MODES)
    solve.add_argument("--format", required=True, choices=("cnf", "lp", "pcid"))
    solve.add_argument("--trace", help="write the transition trace to this file")
    solve.add_argument("--max-steps", type=int, default=engine.DEFAULT_MAX_STEPS)
    solve.add_argument("--enumerate", type=int, default=1, metavar="K",
                       help="find up to K models via blocking clauses")
    solve.add_argument("--self-check", action="store_true",
                       help="check a model verdict against the oracle at any size; at desk "
                            "scale also cross-check an unsat verdict by enumeration and "
                            "reject a minisatid pcid input that is not total")
    solve.add_argument("--raw", action="store_true",
                       help="report the full internal model, alias atoms included")
    solve.add_argument("input")
    solve.set_defaults(handler=_cmd_solve)

    translate = sub.add_parser("translate", help="print a translation of the input")
    translate.add_argument("--to", required=True, choices=("cl", "comp", "edcomp", "pi", "open"))
    translate.add_argument("input")
    translate.set_defaults(handler=_cmd_translate)

    oracle = sub.add_parser("oracle", help="run a ground-truth query by enumeration")
    oracle.add_argument("--task", required=True,
                        choices=("answer-sets", "wfm", "gus", "smasp-models",
                                 "pcid-models", "entails"))
    oracle.add_argument("--assume", help="comma-separated literals (gus task)")
    oracle.add_argument("--goal", help="clauses 'l | l; l | l' (entails task)")
    oracle.add_argument("input")
    oracle.set_defaults(handler=_cmd_oracle)

    check = sub.add_parser("check-trace", help="replay and validate a trace")
    check.add_argument("--trace", required=True)
    check.add_argument("--format", required=True, choices=("cnf", "lp", "pcid"))
    check.add_argument("--strict-strategy", action="store_true",
                       help="also enforce the mode's rule priorities")
    check.add_argument("input")
    check.set_defaults(handler=_cmd_check_trace)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CapExceeded as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except engine.SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
