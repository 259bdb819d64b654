"""Command-line driver: parse a problem file, run the requested checks,
and emit a text or JSON report.

Exit codes: 0 every requested check was decided, 1 input or usage error,
2 some check was undecided within the budget, 3 the brute-force oracle
disagreed with the engine.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import decide
from .groebner import MAX_ENGINE_DEGREE, Budget
from .parsing import ParseError, load_problem

CHECK_CHOICES = ("identity", "inversion", "multiplication", "group",
                 "group-alt", "vstar-eq")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="algroup",
        description="Decide whether the invertible part of a matrix variety "
                    "is a group under multiplication.")
    sub = parser.add_subparsers(dest="command", required=True)
    dec = sub.add_parser("decide", help="run checks on a .alg problem file")
    dec.add_argument("path", help="problem file in the .alg format")
    dec.add_argument("--check", action="append", choices=CHECK_CHOICES,
                     help="check to run (repeatable; default: group)")
    dec.add_argument("--field-equations", type=int, metavar="Q",
                     help="restrict to matrices over the field with Q "
                          "elements (Q a power of the characteristic)")
    dec.add_argument("--oracle", action="store_true",
                     help="cross-check against brute-force enumeration "
                          "(prime fields only)")
    dec.add_argument("--pair-cap", type=int, default=Budget().pair_cap,
                     metavar="N", help="Groebner pair budget per run")
    dec.add_argument("--degree-cap", type=int, default=Budget().degree_cap,
                     metavar="N", help="intermediate degree budget")
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="accepted for compatibility and ignored: "
                          "membership tests run in one process")
    return parser


def _fail(message: str) -> int:
    print(f"algroup: error: {message}", file=sys.stderr)
    return 1


def _verdict_text(value: bool | None) -> str:
    if value is None:
        return "undecided"
    return "true" if value else "false"


def _render_text(report: decide.DecisionReport, show_group: bool = False,
                 show_group_alt: bool = False) -> str:
    lines = [
        f"problem: n={report.n}, field {report.field}, "
        f"{report.num_generators} generator(s)",
        f"verdicts hold over {report.closure}",
    ]
    if report.field_equations_q:
        lines.append(f"restricted to matrices over the field with "
                     f"{report.field_equations_q} elements")
    for name, res in report.checks.items():
        line = f"{name}: {_verdict_text(res.verdict)} ({res.seconds:.3f}s"
        if res.gb_pairs:
            line += f"; pairs {res.gb_pairs}, zero reductions {res.gb_zero_reductions}"
        line += ")"
        if res.verdict is False and res.witness_index is not None:
            line += f"  [witness: generator {res.witness_index}]"
        if res.undecided_reason:
            line += f"  [{res.undecided_reason}]"
        if res.note:
            line += f"  [{res.note}]"
        lines.append(line)
    if show_group or report.group is not None:
        lines.append(f"group: {_verdict_text(report.group)}")
    if show_group_alt or report.group_alt is not None:
        lines.append(f"group (division form): {_verdict_text(report.group_alt)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _oracle_diff(report: decide.DecisionReport, vs, brute) -> list:
    """Engine-versus-enumeration diff of the variety's points `vs` and
    their verdict `brute`; empty when everything agrees."""
    pairs = []
    checks = report.checks
    if "identity" in checks:
        pairs.append(("identity", checks["identity"].verdict, brute.identity))
    if "inversion" in checks:
        pairs.append(("inversion", checks["inversion"].verdict, brute.inversion))
    if "multiplication" in checks:
        pairs.append(("multiplication", checks["multiplication"].verdict,
                      brute.multiplication))
    if "variety_equals_vstar" in checks:
        pairs.append(("variety_equals_vstar",
                      checks["variety_equals_vstar"].verdict,
                      len(vs.points) == len(vs.invertible)))
    if report.group is not None:
        pairs.append(("group", report.group, brute.group))
    if report.group_alt is not None:
        pairs.append(("group (division form)", report.group_alt, brute.group))
    return [(name, engine, bf) for name, engine, bf in pairs
            if engine is not None and engine != bf]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or the usage error (code
        # 2, which here means undecided) and would end the process.
        return 1 if exc.code else 0
    try:
        problem = load_problem(args.path)
    except OSError as exc:
        return _fail(str(exc))
    except ParseError as exc:
        return _fail(f"{args.path}: {exc}")

    checks = list(dict.fromkeys(args.check or ["group"]))

    if args.field_equations is not None:
        try:
            problem = decide.add_field_equations(problem, args.field_equations)
        except ValueError as exc:
            return _fail(str(exc))
    if args.oracle and problem.field.characteristic == 0:
        return _fail("--oracle requires a prime coefficient field")
    if args.oracle and args.field_equations is not None \
            and args.field_equations != problem.field.characteristic:
        return _fail("--oracle enumerates F_p points only and cannot check a "
                     "restriction to a proper extension field")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    if args.pair_cap < 0:
        return _fail("--pair-cap must not be negative")
    if not 0 <= args.degree_cap <= MAX_ENGINE_DEGREE:
        return _fail(f"--degree-cap must be between 0 and {MAX_ENGINE_DEGREE}")

    if args.oracle:
        # The points are enumerated before any check runs, so a problem
        # over the enumeration limit fails without being decided.
        from . import oracle
        try:
            vs = oracle.enumerate_variety(problem)
        except oracle.EnumerationBudgetError as exc:
            return _fail(str(exc))

    budget = Budget(pair_cap=args.pair_cap, degree_cap=args.degree_cap)
    report = decide.run_checks(problem, checks, budget=budget)
    exit_code = 2 if any(res.verdict is None
                         for res in report.checks.values()) else 0
    show_group = "group" in checks
    show_group_alt = "group-alt" in checks

    if args.oracle:
        brute = oracle.is_group_bruteforce(vs)
        diff = _oracle_diff(report, vs, brute)
        if diff:
            print(_render_text(report, show_group, show_group_alt)
                  if args.format == "text"
                  else json.dumps(report.to_dict(), indent=2))
            print("oracle mismatch:", file=sys.stderr)
            for name, engine, bf in diff:
                print(f"  {name}: engine={_verdict_text(engine)} "
                      f"brute-force={_verdict_text(bf)}", file=sys.stderr)
            if brute.witness:
                print(f"  brute-force witness: {brute.witness}", file=sys.stderr)
            return 3
        report.notes.append("oracle agrees on all computed checks "
                            "(F_p points only)")

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_render_text(report, show_group, show_group_alt))
    return exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
