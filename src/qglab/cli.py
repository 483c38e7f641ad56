"""Command-line surface: qglab <command> [options] FILE.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (a tolerance
outside (0, 0.01) included), 3 internal inconsistency (equivalent criteria
disagreed or a certifying battery failed).  Identical configurations
(including the seed) produce byte-identical JSON reports.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import catalog, checks, duality, harmonic, hopf, lattice
from .errors import (
    AxiomFailure,
    ConventionFailure,
    CriteriaDisagree,
    InternalInconsistency,
    QuantumGroupError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _dumps(obj) -> str:
    return hopf.report_json(obj) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


MAX_TOL = 1 / hopf.GAP   # 0.01: the gap bound hopf.GAP * tol stays below 1


def _tolerance(text: str) -> float:
    """A tolerance in (0, MAX_TOL), so not NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < MAX_TOL:
        raise argparse.ArgumentTypeError(
            f"must be a positive number below {MAX_TOL:g}, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=_tolerance, default=hopf.DERIVED_TOL,
                     help=f"tolerance for derived quantities, in (0, {MAX_TOL:g}) "
                          f"(default {hopf.DERIVED_TOL:g})")
    sub.add_argument("--axiom-tol", type=_tolerance, default=hopf.AXIOM_TOL,
                     help=f"tolerance for structural axioms, in (0, {MAX_TOL:g})")
    sub.add_argument("--format", choices=("json", "dot", "text"),
                     default="text", dest="fmt")
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("file", help="quantum-group JSON file")


def _add_examples(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("name", choices=catalog.BUILTIN_NAMES)
    sub.add_argument("--out", default=None)


def _add_idempotents(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--strategy", choices=lattice.STRATEGIES, default="auto")
    sub.add_argument("--seed", type=int, help="accepted and unused")
    sub.add_argument("--restarts", type=int, help="accepted and unused")


def _add_lattice(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--strategy", choices=lattice.STRATEGIES, default="auto")


def _add_check(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                     help="seed of the suite's random probes")
    sub.add_argument("--restarts", type=int, help="accepted and unused")


# each subcommand's help line and the function adding its arguments
_COMMANDS = {
    "validate": ("check the structural axioms", _add_common),
    "examples": ("write a built-in example as JSON", _add_examples),
    "idempotents": ("enumerate idempotent states", _add_idempotents),
    "lattice": ("order, tables and Hasse diagram", _add_lattice),
    "dual": ("construct the dual quantum group", _add_common),
    "check": ("run the full property suite", _add_check),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command line argv.

    When argv[0] names a subcommand, only that subcommand is added; when it
    names none (or argv is None) every subcommand is.  The explicit metavar
    keeps the top-level usage line listing every subcommand, so the help,
    usage and error texts are the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="qglab",
        description="idempotent states, coideal lattices and duality "
                    "on finite quantum groups")
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    # not when none is named: the metavar would rename the argument in
    # argparse's "invalid choice" and "required" errors
    metavar = None if named is None else "{" + ",".join(_COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if named in (None, name):
            add_arguments(commands.add_parser(name, help=help_text))
    return parser


def _load(args: argparse.Namespace) -> hopf.FiniteQuantumGroup:
    if not os.path.exists(args.file):
        raise hopf.ParseError(f"no such file: {args.file}")
    return hopf.load_path(args.file)


def _load_valid(args: argparse.Namespace) -> hopf.FiniteQuantumGroup:
    """The input with its invariant state, once it passes every axiom."""
    group = hopf.with_haar(_load(args))
    report = hopf.validate(group, tol=args.axiom_tol, fail_fast=True)
    if not report.passed:
        raise AxiomFailure(f"not a quantum group: {report.failing()[0]} "
                           f"fails at axiom-tol {args.axiom_tol:g}")
    return group


def _state_record(state, tol: float) -> dict:
    return {
        "name": state.name,
        "coeffs": state.coeffs,
        "q_perp": state.q_perp,
        "coideal_dim": state.coideal.dim,
        "haar_type": bool(harmonic.haar_type_test(state, tol)),
    }


def cmd_validate(args: argparse.Namespace) -> int:
    group = _load(args)
    report = hopf.validate(hopf.with_haar(group), tol=args.axiom_tol)
    if args.fmt == "json":
        doc = {"tol": report.tol,
               "passed": report.passed,
               "checks": [{"name": c.name, "residual": c.residual,
                           "passed": c.passed} for c in report.checks]}
        _emit(_dumps(doc), args.out)
    else:
        _emit(str(report) + "\n", args.out)
    if not report.passed:
        sys.stderr.write(f"validation failed: {report.failing()[0]}\n")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_examples(args: argparse.Namespace) -> int:
    group = catalog.builtin(args.name)
    out = args.out or f"{args.name}.json"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(hopf.save(group) + "\n")
    sys.stderr.write(f"wrote {out}\n")
    return EXIT_OK


def cmd_idempotents(args: argparse.Namespace) -> int:
    group = _load(args)
    enum = lattice.enumerate_idempotents(
        group, strategy=args.strategy, tol=args.tol)
    doc = {
        "group_hash": hopf.group_hash(hopf.with_haar(group)),
        "report": {
            "strategy": enum.report.strategy,
            "recognized": enum.report.recognized,
            "coverage": enum.report.coverage,
        },
        "states": [_state_record(s, args.tol) for s in enum.states],
    }
    if enum.report.generated is not None:
        doc["report"]["generated"] = enum.report.generated
    if args.fmt == "json":
        _emit(_dumps(doc), args.out)
    else:
        lines = [f"{len(enum.states)} idempotent states "
                 f"({enum.report.strategy}, coverage: {enum.report.coverage})"]
        for s in doc["states"]:
            lines.append(f"  {s['name']:<16} coideal dim {s['coideal_dim']}  "
                         f"haar-type {'yes' if s['haar_type'] else 'no'}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_lattice(args: argparse.Namespace) -> int:
    group = _load(args)
    lat = lattice.enumerate_idempotents(
        group, strategy=args.strategy, tol=args.tol).lattice
    dot = lattice.to_dot(lat)
    if args.fmt == "dot":
        _emit(dot, args.out)
        return EXIT_OK
    doc = {
        "names": lat.names,
        "states": [_state_record(s, args.tol) for s in lat.states],
        "order": lat.order.astype(int).tolist(),
        "meet": lat.meet_table.tolist(),
        "join": lat.join_table.tolist(),
        "hasse_edges": [list(e) for e in lat.hasse_edges],
        "dot": dot,
    }
    if args.fmt == "json":
        _emit(_dumps(doc), args.out)
    else:
        lines = [f"{len(lat.states)} states, {len(lat.hasse_edges)} cover edges"]
        for i, j in lat.hasse_edges:
            lines.append(f"  {lat.names[i]} < {lat.names[j]}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    group = _load_valid(args)
    pair = duality.dual(group, args.tol)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(hopf.save(pair.dual_group) + "\n")
    report = {
        "w_kind": duality.W_KIND,
        "residuals": {k: float(v) for k, v in sorted(pair.residuals.items())},
    }
    if args.fmt == "json":
        report["w"] = pair.regular.w
        if not args.out:
            report["dual_group"] = hopf.group_doc(pair.dual_group)
        sys.stdout.write(_dumps(report))
    else:
        lines = [f"convention: {duality.W_KIND}"]
        for k, v in report["residuals"].items():
            lines.append(f"  {k:<24} {v:.2e}")
        if not args.out:
            lines.append(hopf.save(pair.dual_group))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    group = _load(args)
    results = checks.run_all_checks(
        group, axiom_tol=args.axiom_tol, tol=args.tol,
        seed=args.seed)
    if args.fmt == "json":
        doc = [{"key": r.key, "passed": r.passed, "residual": r.residual,
                "detail": r.detail, "internal": r.internal} for r in results]
        _emit(_dumps(doc), args.out)
    else:
        _emit(checks.summary(results) + "\n", args.out)
    failing = [r for r in results if not r.passed]
    if any(r.internal for r in failing):
        sys.stderr.write(f"internal inconsistency: {failing[0].key}\n")
        return EXIT_INTERNAL
    if failing:
        sys.stderr.write(f"first failing check: {failing[0].key}\n")
        return EXIT_CHECK_FAILED
    return EXIT_OK


_DISPATCH = {
    "validate": cmd_validate,
    "examples": cmd_examples,
    "idempotents": cmd_idempotents,
    "lattice": cmd_lattice,
    "dual": cmd_dual,
    "check": cmd_check,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    internal = (CriteriaDisagree, InternalInconsistency, ConventionFailure)
    try:
        try:
            return _DISPATCH[args.command](args)
        except internal:
            # on a file that fails an axiom the fault is the input's: exit 2
            _load_valid(args)
            raise
    except internal as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INTERNAL
    except (QuantumGroupError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
