"""Command-line front end.

Subcommands: ``space info``, ``space mipes``, ``run``, ``hunt``,
``check`` and ``verify``.  Spaces are either built-in aliases (pref3,
pref4, doctrinal, classifier4, cycle6, choose4-2, choose5-2) or paths
to space files.  Exit status: 0 when the command computed its verdict,
1 on usage or input errors or an array too large for memory, 2 when
a search budget was exceeded, 3 when a verification suite fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .aggregators import BudgetExceededError, DEFAULT_BUDGET, check_structural, parse_rule
from .fileio import read_profile, read_space, read_tie_order, read_weights
from .manipulation import find_witness
from .spaces import EvaluationSpace, builtin_space, builtin_space_names, to_bits
from .suites import format_report, run_suite, suite_names


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_space(arg: str) -> EvaluationSpace:
    if arg in builtin_space_names():
        return builtin_space(arg)
    if os.path.exists(arg):
        return read_space(arg)
    raise UsageError(f"{arg!r} is neither a built-in space alias nor an existing file")


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer, got {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {budget}")
    return budget


@lru_cache(maxsize=None)
def _build_parser(command: str | None) -> _Parser:
    """The parser with ``command``'s subparser alone (all for None), cached: parsing leaves it unchanged."""
    parser = _Parser(prog="binagg", description="aggregation of binary evaluations over constrained spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> _Parser | None:
        return sub.add_parser(name, help=help_text) if command in (None, name) else None

    if p_space := add("space", "inspect a space"):
        space_sub = p_space.add_subparsers(dest="space_command", required=True)
        for name, help_text in (("info", "issue count, size, provenance, labels"), ("mipes", "canonical MIPE list")):
            sp = space_sub.add_parser(name, help=help_text)
            sp.add_argument("--space", required=True, help="built-in alias or space file")

    if p_run := add("run", "apply a rule to a profile"):
        p_run.add_argument("--space", required=True)
        p_run.add_argument("--aggregator", required=True, help="rule spec, e.g. nn(majority) or partition:1,2;3")
        p_run.add_argument("--profile", required=True, help="profile file")
        p_run.add_argument("--weights", help="weights file")
        p_run.add_argument("--tieorder", help="tie-order file")

    if p_hunt := add("hunt", "exhaustive manipulation search"):
        p_hunt.add_argument("--space", required=True)
        p_hunt.add_argument("--aggregator", required=True)
        p_hunt.add_argument("-n", type=int, required=True, help="number of voters")
        p_hunt.add_argument("--kind", required=True, choices=("partial", "full", "hamming"))
        p_hunt.add_argument("--weights", help="weights file")
        p_hunt.add_argument("--tieorder", help="tie-order file")
        p_hunt.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="probe budget")

    if p_check := add("check", "exhaustive structural property check"):
        p_check.add_argument("--space", required=True)
        p_check.add_argument("--aggregator", required=True)
        p_check.add_argument("-n", type=int, required=True, help="number of voters")
        p_check.add_argument("--property", required=True, choices=("iia", "monotone", "anonymous", "dictatorial"))
        p_check.add_argument("--weights", help="weights file")
        p_check.add_argument("--tieorder", help="tie-order file")
        p_check.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="probe budget")

    if p_verify := add("verify", "run a named verification suite"):
        p_verify.add_argument("--suite", required=True, help="one of: " + ", ".join(suite_names()))
    return parser


def _cmd_space(args) -> int:
    space = _resolve_space(args.space)
    if args.space_command == "info":
        print(f"issues: {space.m}")
        print(f"feasible: {space.size}")
        print(f"provenance: {space.provenance}")
        print("labels: " + " ".join(space.issue_labels))
        return 0
    for pe in space.mipes():
        print(pe.describe())
    return 0


def _rule_inputs(args, space: EvaluationSpace):
    weights = read_weights(args.weights, space.m) if args.weights else None
    tie = read_tie_order(args.tieorder, space) if args.tieorder else None
    return weights, tie


def _cmd_run(args) -> int:
    space = _resolve_space(args.space)
    rows = read_profile(args.profile, space)
    weights, tie = _rule_inputs(args, space)
    rule = parse_rule(args.aggregator).build(space, len(rows), weights, tie)
    outcome = rule(rows)
    suffix = "" if outcome in space else " (infeasible)"
    print(to_bits(outcome, space.m) + suffix)
    return 0


def _cmd_hunt(args) -> int:
    space = _resolve_space(args.space)
    weights, tie = _rule_inputs(args, space)
    rule = parse_rule(args.aggregator).build(space, args.n, weights, tie)
    witness = find_witness(space, rule, args.n, args.kind, weights, args.budget)
    if witness is None:
        print("FREE")
    else:
        print(witness.report())
    return 0


def _cmd_check(args) -> int:
    space = _resolve_space(args.space)
    weights, tie = _rule_inputs(args, space)
    rule = parse_rule(args.aggregator).build(space, args.n, weights, tie)
    report = check_structural(space, rule, args.n, args.property, args.budget)
    print(f"property {report.property}: {'HOLDS' if report.holds else 'FAILS'}")
    if report.witness is not None:
        a, b = report.witness
        print("witness profiles:")
        print("  A: " + " ".join(to_bits(r, space.m) for r in a))
        print("  B: " + " ".join(to_bits(r, space.m) for r in b))
        if report.issue is not None:
            print(f"issue: {report.issue}")
    if report.detail:
        print(report.detail)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    print(format_report(report))
    print(f"runtime: {report.runtime:.2f}s", file=sys.stderr)
    return 0 if report.passed else 3


_HANDLERS = {"space": _cmd_space, "run": _cmd_run, "hunt": _cmd_hunt, "check": _cmd_check, "verify": _cmd_verify}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)  # a command takes the rest
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as e:  # a ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy refuses an array past memory at once
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
