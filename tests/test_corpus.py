"""Byte-identity corpus: CLI output and rendered library reports, frozen.

``cli_corpus.json`` holds the stdout, stderr and exit code of every command in
:func:`cli_commands` and the rendered reports of every case in
:func:`library_cases`, recorded once from a known-good build.  The test replays
both in-process and compares byte for byte, so any change to a verdict, a
counterexample, a value or its rendering shows up here.  The file is data: no
option of this module rewrites it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from homnambu import cli
from homnambu.catalog import catalog_build, catalog_list
from homnambu.cochains import (
    SuperCochain,
    check_induction_conditions,
    coboundary,
    derivation_transfer,
    is_supertrace,
)
from homnambu.core import GradedLinearMap, HomSuperAlgebra, multiplicative_algebra
from homnambu.derivations import (
    DerivationCandidate,
    check_derivation,
    solve_derivation_space,
)
from homnambu.iterated import check_adjoint_expansion
from homnambu.linalg import is_invertible
from homnambu.rotabaxter import (
    RotaBaxterOperator,
    check_inverse_derivation_equiv,
    check_phi_rb_kernel_condition,
    check_rb,
)

CORPUS = Path(__file__).with_name("cli_corpus.json")
UNCAPPED = sys.maxsize

README_COMMANDS = [
    ["catalog", "list"],
    ["catalog", "show", "g5_1_1"],
    ["check", "catalog:g3_1_1?a=5", "--identity", "all"],
    ["check", "catalog:osp12?lambda=2", "--twist", "identity"],
    ["induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"],
    ["induce", "catalog:g3_1_1?a=2", "--method", "iterate", "--n", "4"],
    ["derive", "catalog:g5_1_1?a=2", "--k", "0", "--parity", "0"],
    ["rb-verify", "catalog:g5_1_1?a=2"],
    ["prelie", "ternary.json"],
]

# the README writes the induced L1 ternary to this file before ``prelie``
INDUCED_FILE = "ternary.json"


def cli_commands() -> list[list[str]]:
    """README commands, then every catalog entry through every command."""
    out = list(README_COMMANDS)
    for entry in catalog_list():
        src = f"catalog:{entry.name}"
        out.append(["check", src, "--report", "structured"])
        out.append(["check", src, "--twist", "identity", "--report", "structured"])
        for k in range(3):
            for parity in (0, 1):
                out.append(["derive", src, "--k", str(k), "--parity", str(parity)])
        out.append(["rb-verify", src])
        out.append(["induce", src, "--method", "iterate", "--n", "3"])
        out.append(["induce", src, "--method", "phi", "--n", "3"])
    for command in ("prelie", "rb-verify", "check"):
        out.append([command, INDUCED_FILE])
    return out


def run_cli(argv) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def replay_cli() -> list[dict]:
    """Run every command in the current directory, writing the induced file first."""
    records = []
    for argv in cli_commands():
        record = run_cli(argv)
        if argv == README_COMMANDS[4]:
            Path(INDUCED_FILE).write_text(record["stdout"], encoding="utf-8")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Library section
# ---------------------------------------------------------------------------

def _twist_variants(alg: HomSuperAlgebra) -> list[tuple[str, HomSuperAlgebra]]:
    """The declared twist, identity twists, and a shear when two labels share a parity."""
    space = alg.space
    identity = multiplicative_algebra(space, alg.bracket, GradedLinearMap.identity(space))
    variants = [("declared", alg), ("identity", identity)]
    for i, a in enumerate(space.labels):
        for b in space.labels[i + 1 :]:
            if space.parity(a) == space.parity(b):
                cols = {l: {l: 1} for l in space.labels}
                cols[a] = {a: 1, b: 1}
                shear = GradedLinearMap(space, 0, cols)
                variants.append(
                    ("shear", HomSuperAlgebra(space, alg.bracket, (shear,), multiplicative_flag=True))
                )
                return variants
    return variants


def _docs(*reports) -> list:
    return [None if r is None else cli.report_doc(r) for r in reports]


def _cochain_values(phi) -> dict:
    space = phi.space
    return {
        ",".join(args): str(phi.values[args])
        for args in sorted(phi.values, key=space.sort_key)
    }


def _derivations(alg) -> list[DerivationCandidate]:
    return [
        DerivationCandidate(m, k)
        for k in (0, 1)
        for parity in (0, 1)
        for m in solve_derivation_space(alg, k, parity)
    ]


# cochains beyond the catalog's own, so that coboundaries, wedge obstructions
# and transfer hypotheses take nonzero values at degrees 1 and 2
EXTRA_COCHAINS = {
    "g5_1_1": [(1, {("e0",): 1}), (2, {("e1", "e1"): 1})],
    "L1": [(1, {("e1",): 1, ("e2",): 2}), (2, {("e1", "e2"): 1, ("e3", "e3"): 3})],
    "L2": [(1, {("e1",): 1}), (2, {("e2", "e3"): 1, ("e2", "e2"): 2})],
}


def _operator_cases(alg, i, op, cochains):
    if op.kind == "derivation":
        yield f"derivation op {i}", lambda: _docs(
            check_derivation(DerivationCandidate(op.map, op.power), alg, UNCAPPED)
        )
    if op.kind != "rota_baxter":
        return
    yield f"rb op {i}", lambda: _docs(check_rb(RotaBaxterOperator(op.map, op.weight), alg, UNCAPPED))
    if is_invertible(op.map):
        def equivalence():
            report = check_inverse_derivation_equiv(op.map, alg, UNCAPPED)
            return _docs(report.rb, report.inverse_derivation)
        yield f"inverse-derivation op {i}", equivalence
    for j, phi in enumerate(cochains):
        def kernel(phi=phi):
            report = check_phi_rb_kernel_condition(op.map, phi, alg, phi.degree + 2, UNCAPPED)
            return _docs(report.kernel, report.nary)
        yield f"rb-kernel op {i} phi {j}", kernel


def _cochain_cases(alg, j, phi):
    yield f"induction phi {j}", lambda: _docs(*check_induction_conditions(phi, alg, UNCAPPED).reports())
    yield f"supertrace phi {j}", lambda: is_supertrace(phi, alg)

    def cochain_values():
        d_phi = coboundary(phi, alg)
        return [_cochain_values(d_phi), _cochain_values(coboundary(d_phi, alg))]
    yield f"coboundary phi {j}", cochain_values

    def transfers():
        n = phi.degree + 2
        reports = [derivation_transfer(c, phi, alg, n, UNCAPPED) for c in _derivations(alg)]
        return [[r.status, *_docs(r.hypothesis, r.conclusion)] for r in reports]
    yield f"transfer phi {j}", transfers


def library_cases() -> list[tuple[str, object]]:
    """(name, thunk) per case; each thunk returns a JSON-ready rendering."""
    sources = [("g3_1_1", {}), ("g5_1_1", {}), ("L1", {}), ("L1", {"a": 2}), ("L2", {})]
    cases = []
    for name, params in sources:
        bundle = catalog_build(name, **params)
        tag = name + "".join(f"?{k}={v}" for k, v in params.items())
        cochains = bundle.cochains + tuple(
            SuperCochain(bundle.algebra.space, degree, values)
            for degree, values in EXTRA_COCHAINS.get(name, ())
        )
        for variant, alg in _twist_variants(bundle.algebra):
            named = []
            for n in (3, 4):
                named.append((f"adjoint n={n}", lambda alg=alg, n=n: _docs(
                    check_adjoint_expansion(alg, n, cap=UNCAPPED))))
            for i, op in enumerate(bundle.operators):
                named.extend(_operator_cases(alg, i, op, cochains))
            for j, phi in enumerate(cochains):
                named.extend(_cochain_cases(alg, j, phi))
            cases.extend((f"{tag}/{variant} {label}", thunk) for label, thunk in named)
    return cases


def replay_library() -> list[dict]:
    return [{"name": name, "doc": thunk()} for name, thunk in library_cases()]


def _corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_cli_corpus_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = _corpus()["cli"]
    actual = replay_cli()
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


def test_cli_corpus_through_the_process_entry(tmp_path, monkeypatch):
    """Each command run as its own ``python -m homnambu.cli`` process, which exits through ``cli.run``,
    prints the bytes and exits with the code that in-process ``main`` gives."""
    monkeypatch.chdir(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])  # the homnambu these tests import, from any directory
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    for record in replay_cli():
        done = subprocess.run(
            [sys.executable, "-m", "homnambu.cli", *record["argv"]], capture_output=True, env=env, timeout=300
        )
        got = (done.returncode, done.stdout, done.stderr)
        assert got == (record["exit"], record["stdout"].encode(), record["stderr"].encode()), " ".join(record["argv"])


def test_library_corpus_is_byte_identical():
    expected = _corpus()["library"]
    actual = replay_library()
    assert [r["name"] for r in actual] == [r["name"] for r in expected]
    for got, want in zip(actual, expected):
        assert json.dumps(got["doc"]) == json.dumps(want["doc"]), want["name"]
