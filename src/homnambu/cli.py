"""Command-line surface: check, induce, derive, rb-verify, prelie, catalog.

Sources are either files in the algebra format or references like
``catalog:g3_1_1?a=5``.  Exit codes: 0 all selected checks pass, 1 some
identity fails, 2 on any input problem (an output scalar too long to print
included), 3 on an internal error (the traceback goes to stderr).  Output is
deterministic: two runs on the same input produce byte-identical text.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import algfile, catalog
from .algfile import AlgebraBundle, AlgebraFileError
from .axioms import (
    CheckReport,
    check_grading,
    check_hom_jacobi,
    check_multiplicative,
    check_nambu_identity,
    check_super_skew,
)
from .cochains import check_induction_conditions, cochain_induced_bracket
from .core import (
    Element,
    GradedLinearMap,
    OrbitConflict,
    OversizedScalar,
    format_scalar,
    multiplicative_algebra,
    scalar,
)
from .derivations import solve_derivation_space
from .iterated import iterated_bracket
from .linalg import is_invertible
from .prelie import (
    _rb_product,
    _sub_adjacent,
    check_3_pre_lie,
    check_derived_identities,
    compatibility_report,
    image_product,
    rb_induced_product,
    rb_morphism_report,
    sub_adjacent,
)
from .rotabaxter import RotaBaxterOperator, check_rb

# Kept for callers that wrap this module's names (benchmarks/tracer.py); cmd_prelie runs their guards itself.
_VERIFIED_PRELIE = (rb_induced_product, sub_adjacent, image_product)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputProblem(Exception):
    pass


_SPACE = " \t\n\r\f\v"  # ASCII whitespace, all that core.scalar strips


def parse_params(text: str) -> dict[str, Fraction]:
    out = {}
    for piece in text.split(","):
        piece = piece.strip(_SPACE)
        if not piece:
            continue
        if "=" not in piece:
            raise InputProblem(f"bad parameter assignment {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip(_SPACE)
        if key in out:
            raise InputProblem(f"parameter {key!r} given twice in {text!r}")
        try:
            out[key] = scalar(value)
        except (ValueError, TypeError, ZeroDivisionError):
            raise InputProblem(f"bad parameter value in {piece!r}") from None
    return out


def resolve_source(source: str, extra_params: str = "") -> AlgebraBundle:
    params = {}
    if source.startswith("catalog:"):
        name, _, qs = source[len("catalog:"):].partition("?")
        params.update(parse_params(qs))
        params.update(parse_params(extra_params))
        try:
            return catalog.catalog_build(name, **params)
        except catalog.CatalogError as exc:
            raise InputProblem(str(exc)) from None
        except (ValueError, TypeError) as exc:
            raise InputProblem(f"bad parameters for {name}: {exc}") from None
    if extra_params:
        raise InputProblem("--params only applies to catalog references")
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputProblem(f"cannot read {source}: {exc}") from None
    return algfile.parse(text)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _value_doc(value):
    """A counterexample side, an Element or a cochain's Fraction, as JSON."""
    if isinstance(value, Element):
        return {l: format_scalar(c) for l, c in sorted(value.coeffs.items())}
    return format_scalar(value)


def report_doc(report: CheckReport) -> dict:
    return {
        "identity": report.identity,
        "passed": report.passed,
        "tuples_checked": report.tuples_checked,
        "failures": report.failures,
        "counterexamples": [
            {
                "args": list(c.args),
                "lhs": _value_doc(c.lhs),
                "rhs": _value_doc(c.rhs),
                "note": c.note,
            }
            for c in report.counterexamples
        ],
    }


def render_reports(reports: list[CheckReport], mode: str, header: dict) -> str:
    if mode == "structured":
        import json  # loaded only for structured output, as few commands need it
        doc = dict(header)
        doc["checks"] = [report_doc(r) for r in reports]
        doc["passed"] = all(r.passed for r in reports)
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    lines = []
    for r in reports:
        lines.append(r.summary())
        for c in r.counterexamples:
            lines.append(f"  at {c.describe()}")
    return "\n".join(lines) + "\n"


def _exit_from(reports: list[CheckReport]) -> int:
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

IDENTITY_CHECKS = ("grading", "super-skew", "hom-jacobi", "nambu", "multiplicative")


def cmd_check(args) -> int:
    bundle = resolve_source(args.source, args.params)
    alg = bundle.algebra
    if args.twist == "identity":
        alg = multiplicative_algebra(alg.space, alg.bracket, GradedLinearMap.identity(alg.space))
    shared_twist = all(t == alg.twists[0] for t in alg.twists[1:])
    if args.identity == "all":
        selected = ["grading", "super-skew"]
        selected.append("hom-jacobi" if alg.arity == 2 else "nambu")
        if shared_twist:
            selected.append("multiplicative")
    else:
        selected = [args.identity]
    if "multiplicative" in selected and not shared_twist:
        raise InputProblem("multiplicative applies to one shared twist, not a twist per slot")
    cap = args.max_counterexamples
    if "hom-jacobi" in selected and alg.arity != 2:
        raise InputProblem("hom-jacobi applies to binary algebras only")
    checks = {
        "grading": check_grading,
        "super-skew": check_super_skew,
        "hom-jacobi": check_hom_jacobi,
        "nambu": check_nambu_identity,
        "multiplicative": check_multiplicative,
    }
    reports = [checks[name](alg, cap) for name in selected]
    header = {"command": "check", "source": args.source, "name": bundle.name}
    sys.stdout.write(render_reports(reports, args.report, header))
    return _exit_from(reports)


def cmd_induce(args) -> int:
    bundle = resolve_source(args.source, args.params)
    alg = bundle.algebra
    if alg.arity != 2:
        raise InputProblem("induction starts from a binary algebra")
    if not alg.multiplicative_flag:
        raise InputProblem("induction needs a multiplicative algebra")
    n = args.n
    if n < 2:
        raise InputProblem("--n must be at least 2")
    if args.method == "phi":
        if not bundle.cochains:
            raise InputProblem(f"{bundle.name} carries no cochains")
        if not 0 <= args.cochain < len(bundle.cochains):
            raise InputProblem(f"no cochain with index {args.cochain}")
        phi = bundle.cochains[args.cochain]
        if phi.degree != n - 2:
            raise InputProblem(
                f"cochain degree {phi.degree} cannot induce arity {n} "
                f"(needs degree {n - 2})"
            )
        skew = check_super_skew(alg, 0)
        if not skew.passed:
            raise InputProblem(f"induction needs a super-skew bracket: {skew.summary()}")
        conditions = check_induction_conditions(phi, alg, args.max_counterexamples)
        if not conditions.passed:
            failed = [r for r in conditions.reports() if not r.passed]
            sys.stdout.write(
                render_reports(
                    failed,
                    args.report,
                    {"command": "induce", "source": args.source, "error": "induction conditions failed"},
                )
            )
            return EXIT_FAIL
        induced = cochain_induced_bracket(phi, alg, n)
        name = f"{bundle.name}_phi_{n}"
        summary = [
            check_grading(induced),
            check_super_skew(induced),
            check_nambu_identity(induced),
            check_multiplicative(induced),
        ]
    else:
        induced = iterated_bracket(alg, n)
        name = f"{bundle.name}_iter_{n}"
        summary = [
            check_grading(induced),
            check_nambu_identity(induced),
            check_multiplicative(induced),
        ]
    out = AlgebraBundle(name, induced, operators=bundle.operators)
    comments = ["verification summary:"] + [f"  {r.summary()}" for r in summary]
    sys.stdout.write(algfile.emit(out, comments))
    return _exit_from(summary)


def cmd_derive(args) -> int:
    bundle = resolve_source(args.source, args.params)
    alg = bundle.algebra
    if not alg.multiplicative_flag:
        raise InputProblem("derivation solving needs a multiplicative algebra")
    if args.parity not in (0, 1):
        raise InputProblem("parity must be 0 or 1")
    if args.k < 0:
        raise InputProblem("k must be nonnegative")
    basis = solve_derivation_space(alg, args.k, args.parity)
    if args.report == "structured":
        import json
        doc = {
            "command": "derive",
            "source": args.source,
            "power": args.k,
            "parity": args.parity,
            "dimension": len(basis),
            "basis": [
                [[format_scalar(v) for v in row] for row in m.matrix()] for m in basis
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    else:
        lines = [f"dimension {len(basis)} (power={args.k}, parity={args.parity})"]
        for i, m in enumerate(basis):
            lines.append(f"basis[{i}]:")
            for row in m.matrix():
                lines.append("  [" + ", ".join(format_scalar(v) for v in row) + "]")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS


def _pick_operator(bundle: AlgebraBundle, index, kind: str):
    candidates = [op for op in bundle.operators if op.kind == kind]
    if index is not None:
        if not 0 <= index < len(bundle.operators):
            raise InputProblem(f"no operator with index {index}")
        op = bundle.operators[index]
        if op.kind != kind:
            raise InputProblem(f"operator {index} is a {op.kind}, expected {kind}")
        return op
    if not candidates:
        raise InputProblem(f"{bundle.name} carries no {kind} operator")
    return candidates[0]


def cmd_rb_verify(args) -> int:
    bundle = resolve_source(args.source, args.params)
    op = _pick_operator(bundle, args.operator, "rota_baxter")
    rb = RotaBaxterOperator(op.map, op.weight)
    report = check_rb(rb, bundle.algebra, args.max_counterexamples)
    header = {
        "command": "rb-verify",
        "source": args.source,
        "weight": format_scalar(op.weight),
    }
    sys.stdout.write(render_reports([report], args.report, header))
    return _exit_from([report])


def cmd_prelie(args) -> int:
    bundle = resolve_source(args.source, args.params)
    alg = bundle.algebra
    if alg.arity != 3:
        raise InputProblem("pre-Lie verification needs a ternary algebra")
    op = _pick_operator(bundle, args.operator, "rota_baxter")
    if op.weight != 0:
        raise InputProblem("pre-Lie induction needs a weight-0 operator")
    rb = RotaBaxterOperator(op.map, op.weight)
    cap = args.max_counterexamples
    reports = [
        check_grading(alg, cap),
        check_super_skew(alg, cap),
        check_nambu_identity(alg, cap),
        check_rb(rb, alg, cap),
    ]
    if all(r.passed for r in reports):  # the guards of the verified constructions, already run
        product = _rb_product(alg, rb, "induced")
        reports.append(check_3_pre_lie(product, cap))
        reports.append(_sub_adjacent(product, cap)[1])
        reports.append(check_derived_identities(product, cap))
        reports.append(rb_morphism_report(product, alg, rb, cap))
        if is_invertible(rb.map):
            reports.append(compatibility_report(_rb_product(alg, rb, "compatible"), alg, cap))
    header = {"command": "prelie", "source": args.source, "name": bundle.name}
    sys.stdout.write(render_reports(reports, args.report, header))
    return _exit_from(reports)


def cmd_catalog(args) -> int:
    if args.action == "list":
        lines = []
        for entry in catalog.catalog_list():
            params = ", ".join(
                p.name + (f" ({p.constraint})" if p.constraint else "")
                for p in entry.parameters
            )
            lines.append(f"{entry.name}: {entry.summary}")
            lines.append(f"  parameters: {params or 'none'}")
            lines.append(f"  profile: {', '.join(entry.profile)}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_PASS
    entry = catalog.catalog_entry(args.name)
    bundle = entry.build()
    comments = [
        f"catalog entry {entry.name} at default parameters",
        f"profile: {', '.join(entry.profile)}",
    ]
    sys.stdout.write(algfile.emit(bundle, comments))
    return EXIT_PASS


# The command table, the one statement of the command-line grammar: per subcommand its help, its function
# and its arguments as (name, type, choices, default, required, help), positionals first, then options in
# usage order.  build_parser builds argparse's tree from it; _parse_exact reads well-formed argv with it.
_SOURCE = (("source", None, None, None, True, None),)
_COMMON = (
    ("--params", None, None, "", False, "extra k=v,... catalog parameters"),
    ("--report", None, ("text", "structured"), "text", False, None),
    ("--max-counterexamples", int, None, 16, False, None))
_OPERATOR = _SOURCE + (("--operator", int, None, None, False, None),) + _COMMON
COMMANDS = {
    "check": ("verify identities of an algebra", cmd_check, _SOURCE + (
        ("--identity", None, ("all",) + IDENTITY_CHECKS, "all", False, None),
        ("--twist", None, ("identity",), None, False, None)) + _COMMON),
    "induce": ("emit an induced higher-arity algebra", cmd_induce, _SOURCE + (
        ("--method", None, ("phi", "iterate"), None, True, None),
        ("--n", int, None, None, True, None),
        ("--cochain", int, None, 0, False, None)) + _COMMON),
    "derive": ("solve for twisted derivations", cmd_derive, _SOURCE + (
        ("--k", int, None, None, True, None),
        ("--parity", int, None, None, True, None)) + _COMMON),
    "rb-verify": ("verify an attached Rota-Baxter operator", cmd_rb_verify, _OPERATOR),
    "prelie": ("induced ternary pre-Lie verification battery", cmd_prelie, _OPERATOR),
    "catalog": ("list or show built-in entries", cmd_catalog, (
        ("action", None, ("list", "show"), None, True, None),
        ("name", None, None, None, False, None))),
}


def build_parser():
    """argparse's tree for the command table: the one source of help, usage and error text."""
    import argparse  # loaded only for help, errors and unusual forms; _parse_exact reads the rest
    parser = argparse.ArgumentParser(
        prog="homnambu", description="exact checks and constructions for graded n-ary twisted algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, type_, choices, default, required, arg_help in arguments:
            shape = {"required": required} if name.startswith("-") else {"nargs": None if required else "?"}
            p.add_argument(name, type=type_, choices=choices, default=default, help=arg_help, **shape)
        p.set_defaults(func=func)
    return parser


def _catalog_misuse(args) -> str | None:
    """The usage error of a catalog action given a name it cannot take, if any."""
    if args.command == "catalog" and (args.action == "show") != bool(args.name):
        return f"catalog {args.action} " + ("takes no entry name" if args.name else "needs an entry name")


def _parse_exact(argv: list[str]):
    """What ``parse_args`` sets for an exact, well-formed argv, or None for argparse to read it.

    Exact: the subcommand first, each option a separate ``--flag value`` pair given once, no value or
    positional starting with ``-``, no positional too many and every required argument there."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    given, words, rest = {}, [], iter(argv[1:])
    for token in rest:
        if token.startswith("--") and token not in given and any(token == a[0] for a in arguments):
            given[token] = next(rest, "-")  # a flag with no value declines below
        else:
            words.append(token)
    positionals = [a[0] for a in arguments if not a[0].startswith("-")]
    if len(words) > len(positionals) or any(t.startswith("-") for t in words + list(given.values())):
        return None
    given.update(zip(positionals, words))
    values = {"command": argv[0], "func": func}
    for name, type_, choices, value, required, _ in arguments:  # value: the default unless given
        if name in given:
            try:
                value = given[name] if type_ is None else type_(given[name])
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        elif required:
            return None
        values[name.lstrip("-").replace("-", "_")] = value
    args = SimpleNamespace(**values)
    return None if _catalog_misuse(args) else args


def main(argv=None) -> int:
    args = _parse_exact(sys.argv[1:] if argv is None else list(argv))
    if args is None:  # argparse prints help, usage and every error, and exits on them
        parser = build_parser()
        args = parser.parse_args(argv)
        if problem := _catalog_misuse(args):
            parser.error(problem)
    try:
        if getattr(args, "max_counterexamples", 0) < 0:
            raise InputProblem("--max-counterexamples must be 0 or more")
        return args.func(args)
    except (InputProblem, AlgebraFileError, OrbitConflict, OversizedScalar, catalog.CatalogError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> int:
    """The process entry (``python -m homnambu.cli``, the ``homnambu`` script): flush, then ``os._exit(main())``."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's exit flushes again and reports the failure
        return code
    os._exit(code)  # no teardown: no collections, no atexit handlers


if __name__ == "__main__":
    sys.exit(run())
