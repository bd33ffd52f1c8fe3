"""The command table against the argparse tree it replaced.

``cli.build_parser`` builds argparse's tree from ``cli.COMMANDS``, and
``cli._parse_exact`` reads well-formed argv from the same table without
argparse.  ``cli_reference`` keeps the hand-written parser and entry they
replaced.  Help and usage text must match the reference byte for byte; where
the exact parser accepts an argv it must set what the reference's
``parse_args`` sets, and wherever the reference exits it must decline, so that
argparse alone prints help, usage and errors.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_reference
from homnambu import cli

CORPUS_ARGV = [record["argv"] for record in json.loads(
    Path(__file__).with_name("cli_corpus.json").read_text(encoding="utf-8"))["cli"]]

# Argv the reference either rejects or reads only through argparse's looser forms.
HAND_WRITTEN = [
    *([command, "-h"] for command in cli.COMMANDS),
    ["-h"],
    ["check"],
    ["derive", "catalog:g3_1_1", "--parity", "0"],
    ["derive", "catalog:g3_1_1", "--k", "x", "--parity", "0"],
    ["check", "catalog:g3_1_1", "--identity", "bogus"],
    ["check", "catalog:g3_1_1", "--ident", "nambu"],
    ["check", "catalog:g3_1_1", "--report=structured"],
    ["derive", "catalog:g3_1_1", "--k", "-1", "--parity", "0"],
    ["check", "catalog:g3_1_1", "--identity", "grading", "--identity", "super-skew"],
    ["derive", "catalog:g3_1_1", "--k", "x", "--k", "1", "--parity", "0"],
    ["check", "catalog:g3_1_1", "catalog:g1_0_2"],
    ["catalog", "show"],
    [],
]


def _subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def reference_args(argv) -> dict | None:
    """What the reference entry reads from argv, or None where it exits (usage error or help)."""
    parser = cli_reference.build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return None
    if args.command == "catalog" and args.action == "show" and not args.name:
        return None  # the reference's main calls parser.error here
    return vars(args)


def assert_agrees(argv):
    exact = cli._parse_exact(list(argv))
    reference = reference_args(argv)
    if exact is not None:
        assert vars(exact) == reference, argv
    if reference is None:
        assert exact is None, argv


def run(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_and_usage_match_the_reference(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    built, reference = cli.build_parser(), cli_reference.build_parser()
    assert built.format_help() == reference.format_help()
    assert built.format_usage() == reference.format_usage()
    subparsers, reference_subparsers = _subparsers(built), _subparsers(reference)
    assert list(subparsers) == list(reference_subparsers) == list(cli.COMMANDS)
    for name, parser in subparsers.items():
        assert parser.format_help() == reference_subparsers[name].format_help(), name
        assert parser.format_usage() == reference_subparsers[name].format_usage(), name


def test_every_corpus_command_is_read_exactly():
    assert len(CORPUS_ARGV) == 100
    for argv in CORPUS_ARGV:
        assert cli._parse_exact(argv) is not None, argv
        assert_agrees(argv)


@pytest.mark.parametrize("argv", HAND_WRITTEN, ids=" ".join)
def test_hand_written_argv(argv):
    assert_agrees(argv)


@pytest.mark.parametrize("argv", HAND_WRITTEN, ids=" ".join)
def test_main_prints_what_the_reference_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(cli.main, argv) == run(cli_reference.main, argv)


def test_catalog_list_with_a_name_is_left_to_argparse():
    """The reference read it and ignored the name; main now makes it a usage error through argparse."""
    assert cli._parse_exact(["catalog", "list", "osp12"]) is None


FLAGS = sorted({arg[0] for _, _, args in cli.COMMANDS.values() for arg in args if arg[0].startswith("-")})
VOCABULARY = (
    list(cli.COMMANDS) + FLAGS
    + ["bogus", "", "-h", "--help", "--", "-", "--ident", "--max", "--report=structured", "--k=1"]
    + ["catalog:g3_1_1", "catalog:osp12?lambda=2", "list", "show", "osp12", "nambu", "all", "identity"]
    + ["iterate", "phi", "text", "structured", "0", "1", "3", "-1", " 7", "x", "1.5"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(VOCABULARY), max_size=8))
def test_vocabulary_argv(argv):
    assert_agrees(argv)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORPUS_ARGV), st.data())
def test_corpus_argv_with_one_token_changed(argv, data):
    """Near-misses of well-formed commands: one token replaced by a word of the vocabulary."""
    at = data.draw(st.integers(0, len(argv) - 1))
    assert_agrees(argv[:at] + [data.draw(st.sampled_from(VOCABULARY))] + argv[at + 1:])
