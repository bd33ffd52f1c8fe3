"""The CLI's argparse tree and entry as they were written before the command table.

``build_parser`` below, kept verbatim, added each subcommand's arguments by
hand, and ``main``, kept verbatim too, ran every argv through it.
:mod:`homnambu.cli` now builds the same tree from ``cli.COMMANDS`` and reads
well-formed argv without argparse; the tests compare both with this
reference: help and usage text byte for byte, the attributes ``parse_args``
sets, and the exit code, stdout and stderr of ``main``.
"""

from __future__ import annotations

import argparse
import sys

from homnambu import catalog
from homnambu.algfile import AlgebraFileError
from homnambu.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    IDENTITY_CHECKS,
    InputProblem,
    cmd_catalog,
    cmd_check,
    cmd_derive,
    cmd_induce,
    cmd_prelie,
    cmd_rb_verify,
)
from homnambu.core import OrbitConflict, OversizedScalar


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homnambu",
        description="exact checks and constructions for graded n-ary twisted algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--params", default="", help="extra k=v,... catalog parameters")
        p.add_argument("--report", choices=("text", "structured"), default="text")
        p.add_argument("--max-counterexamples", type=int, default=16)

    p = sub.add_parser("check", help="verify identities of an algebra")
    p.add_argument("source")
    p.add_argument(
        "--identity", default="all", choices=("all",) + IDENTITY_CHECKS
    )
    p.add_argument("--twist", choices=("identity",), default=None)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("induce", help="emit an induced higher-arity algebra")
    p.add_argument("source")
    p.add_argument("--method", required=True, choices=("phi", "iterate"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--cochain", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("derive", help="solve for twisted derivations")
    p.add_argument("source")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--parity", required=True, type=int)
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("rb-verify", help="verify an attached Rota-Baxter operator")
    p.add_argument("source")
    p.add_argument("--operator", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_rb_verify)

    p = sub.add_parser("prelie", help="induced ternary pre-Lie verification battery")
    p.add_argument("source")
    p.add_argument("--operator", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_prelie)

    p = sub.add_parser("catalog", help="list or show built-in entries")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show needs an entry name")
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
