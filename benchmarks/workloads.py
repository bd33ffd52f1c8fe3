"""The four workloads: batches of CLI commands with expected outcomes.

Each command is an argument list for ``python -m homnambu.cli``, the exit code
it must return, and a check of its stdout that holds on every seed.  Seed 0 is
the default seed: it uses every catalog entry's default parameters, and its
stdout must also match the sha256 digests in ``digests.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = {
    "nambu-nested": "the passing arity-3..5 Nambu check on nested osp12 dominates",
    "nambu-failing": "random graded algebras with thousands of failing Nambu cells each",
    "derive-nested": "derivation constraint assembly and exact nullspace on nested osp12",
    "catalog-sweep": "about 100 short commands over every catalog entry; start-up dominates",
}

DEFAULT_SEED = 0
COUNTEREXAMPLE_CAP = 16  # the CLI's default --max-counterexamples

Check = Callable[[str, int], "str | None"]


@dataclass
class Command:
    argv: tuple[str, ...]
    expect_exit: int
    check: Check
    save_as: str | None = None  # stdout is written here for later commands

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Batch:
    commands: list[Command]
    inputs: list[inputs.InputFile] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a description of the problem, or None.
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^(PASS|FAIL) (\S+) \(tuples=(\d+), failures=(\d+)\)$")


def _summaries(lines) -> list[tuple[bool, str, int, int]]:
    out = []
    for line in lines:
        m = _SUMMARY.match(line.strip())
        if m:
            out.append((m[1] == "PASS", m[2], int(m[3]), int(m[4])))
    return out


def _verdicts_agree(summaries, code: int, nambu_cells: int | None) -> str | None:
    if not summaries:
        return "no report lines"
    for passed, identity, tuples, failures in summaries:
        if passed != (failures == 0):
            return f"{identity}: verdict disagrees with failures={failures}"
        if identity == "nambu" and nambu_cells is not None and tuples != nambu_cells:
            return f"nambu covered {tuples} tuples, expected {nambu_cells}"
    if (code == 0) != all(s[0] for s in summaries):
        return f"exit {code} disagrees with the report verdicts"
    return None


def text_reports(nambu_cells: int | None = None) -> Check:
    def check(stdout, code):
        return _verdicts_agree(_summaries(stdout.splitlines()), code, nambu_cells)

    return check


def structured_reports(nambu_cells: int) -> Check:
    def check(stdout, code):
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"structured report is not JSON: {exc}"
        summaries = []
        for r in doc["checks"]:
            if len(r["counterexamples"]) != min(r["failures"], COUNTEREXAMPLE_CAP):
                return f"{r['identity']}: {len(r['counterexamples'])} counterexamples kept"
            summaries.append((r["passed"], r["identity"], r["tuples_checked"], r["failures"]))
        if doc["passed"] != all(s[0] for s in summaries):
            return "top-level verdict disagrees with the checks"
        return _verdicts_agree(summaries, code, nambu_cells)

    return check


def algebra_document(arity: int, nambu_cells: int | None) -> Check:
    """An emitted algebra file whose comment block carries verification lines."""

    def check(stdout, code):
        comments = [l[1:].strip() for l in stdout.splitlines() if l.startswith("#")]
        body = "\n".join(l for l in stdout.splitlines() if not l.startswith("#"))
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            return f"emitted algebra is not JSON: {exc}"
        if doc.get("arity") != arity:
            return f"emitted arity {doc.get('arity')}, expected {arity}"
        if not comments:
            return "emitted algebra has no comment lines"
        if not _summaries(comments):
            return None  # catalog show: no verification block
        return _verdicts_agree(_summaries(comments), code, nambu_cells)

    return check


def derive_text(k: int, parity: int) -> Check:
    header = re.compile(rf"^dimension (\d+) \(power={k}, parity={parity}\)$")

    def check(stdout, code):
        lines = stdout.splitlines()
        m = header.match(lines[0]) if lines else None
        if not m:
            return f"unexpected derive header {lines[:1]}"
        if sum(1 for l in lines if l.startswith("basis[")) != int(m[1]):
            return "basis count disagrees with the stated dimension"
        return None

    return check


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def _cells(dim: int, arity: int) -> int:
    return dim ** (2 * arity - 1)


# osp12 parameters for seeds other than the default; each choice keeps the
# nested Nambu check passing and costs about the same as the default.
OSP12_LAMBDAS = ("-2", "3", "1/2", "-1/2", "3/2", "-3")


def _osp12_params(seed: int) -> dict[str, str]:
    if seed == DEFAULT_SEED:
        return {}
    return {"lambda": random.Random(f"osp12/{seed}").choice(OSP12_LAMBDAS)}


def _ref(name: str, params: dict[str, str]) -> str:
    if not params:
        return f"catalog:{name}"
    return f"catalog:{name}?" + ",".join(f"{k}={v}" for k, v in params.items())


def nambu_nested(seed: int, workdir: Path) -> Batch:
    ref = _ref("osp12", _osp12_params(seed))
    return Batch(
        [
            Command(
                ("induce", ref, "--method", "iterate", "--n", str(n)),
                0,
                algebra_document(n, _cells(5, n)),
            )
            for n in (3, 4, 5)
        ]
    )


def nambu_failing(seed: int, workdir: Path) -> Batch:
    files = inputs.write_failing_inputs(seed, workdir)
    commands = []
    for f in files:
        # `--identity all` would reach check_multiplicative, which raises on
        # per-slot twists; see README.md, "Known defect".
        for identity, expect in (("nambu", 1), ("super-skew", 0)):
            commands.append(
                Command(
                    ("check", f.path, "--identity", identity, "--report", "structured"),
                    expect,
                    structured_reports(f.cells),
                )
            )
    return Batch(commands, files)


def derive_nested(seed: int, workdir: Path) -> Batch:
    files = inputs.write_nested_osp12(_osp12_params(seed), (4, 5), workdir)
    commands = []
    for f in files:
        for k in (0, 1, 2):
            for parity in (0, 1):
                commands.append(
                    Command(
                        ("derive", f.path, "--k", str(k), "--parity", str(parity)),
                        0,
                        derive_text(k, parity),
                    )
                )
    return Batch(commands, files)


# name -> (dimension, parameter alternatives, check exit, --twist identity exit)
# The first alternative is used with the default seed.  L1 and L2 fail the
# twisted Jacobi identity for every admissible parameter choice; with identity
# twists osp12, L1 and L2 fail and the two-dimensional entries pass.
CATALOG = {
    "g1_0_2": (2, ({"a": "2"}, {"a": "-1"}, {"a": "1/2"}, {"a": "3"}), 0, 0),
    "g2_1_1": (2, ({"a": "2"}, {"a": "-1"}, {"a": "1/2"}, {"a": "3"}), 0, 0),
    "g3_1_1": (2, ({"a": "3"}, {"a": "-1"}, {"a": "1/2"}, {"a": "5"}), 0, 0),
    "g4_1_1": (2, ({"a": "3"}, {"a": "-1"}, {"a": "1/2"}, {"a": "-2"}), 0, 0),
    "g5_1_1": (2, ({"a": "3"}, {"a": "-1"}, {"a": "1/2"}, {"a": "-2"}), 0, 0),
    "osp12": (5, ({"lambda": "3"}, {"lambda": "-2"}, {"lambda": "1/2"}, {"lambda": "-1/2"}), 0, 1),
    "L1": (3, ({"a": "2", "b": "3"}, {"a": "1", "b": "5"}, {"a": "-1", "b": "2"}, {"a": "1/2", "b": "1"}), 1, 1),
    "L2": (3, ({"a": "2", "b": "2", "c": "3"}, {"a": "1", "b": "1", "c": "1"}, {"a": "-1", "b": "2", "c": "5"}, {"a": "1/2", "b": "3", "c": "2"}), 1, 1),
}
WITH_RB_OPERATOR = ("g3_1_1", "g5_1_1", "L1")


def catalog_sweep(seed: int, workdir: Path) -> Batch:
    rng = random.Random(f"catalog-sweep/{seed}")
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    commands = []
    for name, (dim, alternatives, check_exit, identity_exit) in CATALOG.items():
        commands.append(Command(("catalog", "show", name), 0, algebra_document(2, None)))
        alternative = alternatives[0] if seed == DEFAULT_SEED else rng.choice(alternatives)
        for params in ({}, alternative):
            ref = _ref(name, params)
            tag = "default" if not params else "alt"
            commands += [
                Command(("check", ref), check_exit, text_reports()),
                Command(("check", ref, "--twist", "identity"), identity_exit, text_reports()),
                Command(("derive", ref, "--k", "0", "--parity", "0"), 0, derive_text(0, 0)),
                Command(("derive", ref, "--k", "1", "--parity", "1"), 0, derive_text(1, 1)),
            ]
            if name in WITH_RB_OPERATOR:
                commands.append(Command(("rb-verify", ref), 0, text_reports()))
            if dim == 2:
                commands += [
                    Command(
                        ("induce", ref, "--method", "iterate", "--n", str(n)),
                        0,
                        algebra_document(n, _cells(2, n)),
                    )
                    for n in (3, 4)
                ]
            if name == "L1":
                path = f"inputs/L1_phi_3_{tag}.alg"
                commands += [
                    Command(
                        ("induce", ref, "--method", "phi", "--n", "3"),
                        0,
                        algebra_document(3, _cells(3, 3)),
                        save_as=path,
                    ),
                    Command(("prelie", path), 0, text_reports(_cells(3, 3))),
                    Command(("check", path), 0, text_reports(_cells(3, 3))),
                ]
    return Batch(commands)


BUILDERS = {
    "nambu-nested": nambu_nested,
    "nambu-failing": nambu_failing,
    "derive-nested": derive_nested,
    "catalog-sweep": catalog_sweep,
}
