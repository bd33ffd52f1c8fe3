import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homnambu.core import OversizedScalar

CLI = [sys.executable, "-m", "homnambu.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )


class TestCheck:
    def test_catalog_pass_exit_zero(self):
        result = run_cli("check", "catalog:g3_1_1?a=5", "--identity", "all")
        assert result.returncode == 0
        assert "PASS hom-jacobi" in result.stdout

    def test_identity_twist_failure_exit_one(self):
        result = run_cli("check", "catalog:osp12?lambda=2", "--twist", "identity")
        assert result.returncode == 1
        assert "FAIL hom-jacobi" in result.stdout

    def test_unicode_lambda_parameter(self):
        result = run_cli("check", "catalog:osp12?λ=2")
        assert result.returncode == 0

    def test_alias_on_an_entry_without_lambda_is_named_as_typed(self):
        """The alias was renamed before the names were checked, so the error named 'lambda', a key not typed."""
        result = run_cli("check", "catalog:g3_1_1?λ=2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: g3_1_1: unknown parameters ['λ']"]

    def test_unknown_entry_exit_two(self):
        result = run_cli("check", "catalog:zzz")
        assert result.returncode == 2

    def test_constraint_violation_exit_two(self):
        result = run_cli("check", "catalog:osp12?lambda=0")
        assert result.returncode == 2

    def test_orbit_conflict_file_exit_two(self, tmp_path):
        doc = {
            "name": "broken",
            "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}],
            "arity": 2,
            "multiplicative": True,
            "twists": [[["1", "0"], ["0", "1"]]],
            "bracket": [
                {"args": ["a", "b"], "value": {"a": "1"}},
                {"args": ["b", "a"], "value": {"a": "1"}},
            ],
            "skew_complete": True,
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        result = run_cli("check", str(path))
        assert result.returncode == 2

    def test_structured_report_is_json(self):
        result = run_cli(
            "check", "catalog:g5_1_1?a=2", "--report", "structured"
        )
        doc = json.loads(result.stdout)
        assert doc["passed"] is True
        assert {c["identity"] for c in doc["checks"]} == {
            "grading",
            "super-skew",
            "hom-jacobi",
            "multiplicative",
        }

    def test_max_counterexamples(self):
        result = run_cli(
            "check",
            "catalog:osp12?lambda=2",
            "--twist",
            "identity",
            "--identity",
            "hom-jacobi",
            "--report",
            "structured",
            "--max-counterexamples",
            "2",
        )
        doc = json.loads(result.stdout)
        check = doc["checks"][0]
        assert len(check["counterexamples"]) == 2
        assert check["failures"] > 2

    @pytest.mark.parametrize(
        "args, piece",
        [
            (["catalog:g3_1_1?a=1.5"], "a=1.5"),
            (["catalog:g3_1_1?a=1_0"], "a=1_0"),
            (["catalog:g3_1_1", "--params", "a=+2"], "a=+2"),
            (["catalog:g3_1_1?a=1e10000000"], "a=1e10000000"),
            (["catalog:g3_1_1", "--params", "a=1e10000000"], "a=1e10000000"),
            (["catalog:g3_1_1?a=\u0663"], "a=\u0663"),
            (["catalog:g3_1_1", "--params", "a=\uff13"], "a=\uff13"),
        ],
        ids=["decimal", "underscore", "plus", "exponent", "exponent-params", "arabic-indic-digit", "fullwidth-digit"],
    )
    def test_parameter_outside_scalar_grammar_exit_two(self, args, piece):
        """Parameters took every form Fraction() reads; a=1e10000000 ran for seconds
        and exited 0 with a ten-million-digit twist.  Each now exits 2 at once."""
        result = subprocess.run(CLI + ["check", *args], capture_output=True, text=True, timeout=5)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: bad parameter value in '{piece}'"]

    @pytest.mark.parametrize(
        "args, line",
        [
            (["catalog:osp12?lambda=2,λ=3"], "error: osp12: parameter lambda given twice, as lambda and λ"),
            (["catalog:osp12?λ=3,lambda=2"], "error: osp12: parameter lambda given twice, as lambda and λ"),
            (["catalog:osp12?lambda=2", "--params", "λ=3"], "error: osp12: parameter lambda given twice, as lambda and λ"),
            (["catalog:g3_1_1?a=2,a=3"], "error: parameter 'a' given twice in 'a=2,a=3'"),
            (["catalog:g3_1_1?a=2, a =2"], "error: parameter 'a' given twice in 'a=2, a =2'"),
            (["catalog:g3_1_1", "--params", "a=2,a=3"], "error: parameter 'a' given twice in 'a=2,a=3'"),
        ],
        ids=["lambda-then-alias", "alias-then-lambda", "alias-in-params", "query", "query-same-value", "params"],
    )
    def test_repeated_parameter_exit_two(self, args, line):
        """Each of these took one of the values, the last one given, and exited 0."""
        result = run_cli("check", *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [line]

    def test_entry_scalar_too_long_for_a_document_exit_two(self):
        """An entry is a document, so a twist entry a^2 with more digits than int() converts is an input error, as in a file."""
        result = run_cli("check", "catalog:g5_1_1?a=" + "7" * 3000)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: bad parameters for g5_1_1: {OversizedScalar()}"]

    def test_params_override_a_query_parameter(self):
        induce = lambda *args: run_cli("induce", *args, "--method", "iterate", "--n", "3")
        result = induce("catalog:g3_1_1?a=2", "--params", "a=3")
        assert result.returncode == 0
        assert result.stdout == induce("catalog:g3_1_1?a=3").stdout
        assert result.stdout != induce("catalog:g3_1_1?a=2").stdout

    def test_parameter_with_spaces_still_parses(self):
        result = run_cli("check", "catalog:g3_1_1", "--params", "a= 3/6 ")
        assert result.returncode == 0
        assert result.stdout == run_cli("check", "catalog:g3_1_1?a=1/2").stdout

    @pytest.mark.parametrize("value", ["\xa03\u3000", "3\u3000", "\t\xa03"])
    def test_parameter_with_unicode_padding_exit_two(self, value):
        """Only ASCII whitespace pads a value; a no-break or ideographic space around it
        was stripped and the value read as 3."""
        result = run_cli("check", "catalog:g3_1_1", "--params", f"a={value}")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: bad parameter value in {'a=' + value!r}"]

    def test_negative_max_counterexamples_exit_two(self):
        result = run_cli("check", "catalog:g3_1_1", "--max-counterexamples", "-1")
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: --max-counterexamples must be 0 or more"]


def _per_slot_file(tmp_path):
    doc = {
        "name": "per_slot",
        "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 1}],
        "arity": 3,
        "multiplicative": False,
        "twists": [[["1", "0"], ["0", "1"]], [["2", "0"], ["0", "1"]]],
        "bracket": [],
        "skew_complete": True,
    }
    path = tmp_path / "per_slot.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPerSlotTwists:
    def test_all_skips_multiplicative(self, tmp_path):
        result = run_cli("check", _per_slot_file(tmp_path), "--report", "structured")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert [c["identity"] for c in doc["checks"]] == ["grading", "super-skew", "nambu"]

    def test_explicit_multiplicative_exit_two(self, tmp_path):
        result = run_cli(
            "check", _per_slot_file(tmp_path), "--identity", "multiplicative"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _one_entry_doc():
    return {
        "name": "one_entry",
        "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}],
        "arity": 2,
        "multiplicative": True,
        "twists": [[["1", "0"], ["0", "1"]]],
        "bracket": [{"args": ["a", "b"], "value": {"b": "1"}}],
        "skew_complete": True,
    }


def _list_value(doc):
    doc["bracket"][0]["value"] = [1]


def _string_degree(doc):
    doc["cochains"] = [{"degree": "1", "values": [{"args": ["a"], "value": "1"}]}]


def _int_bracket(doc):
    doc["bracket"] = 5


def _unknown_cochain_label(doc):
    doc["cochains"] = [{"degree": 1, "values": [{"args": ["zz"], "value": "1"}]}]


def _set(path, value):
    """A mutation setting ``doc[path[0]][path[1]]..`` to ``value``; names the field."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    mutate.field = str(path[-1])
    return mutate


def _with_operator(**fields):
    """A mutation attaching one zero rota_baxter operator with ``fields`` overridden."""

    def mutate(doc):
        operator = {"kind": "rota_baxter", "power": 0, "weight": "0", "parity": 0,
                    "matrix": [["0", "0"], ["0", "0"]]}
        operator.update(fields)
        doc["operators"] = [operator]

    mutate.field = next(iter(fields))
    return mutate


def _bracket(*entries):
    """A mutation replacing the bracket by (args, value) entries, args spelled as one string of labels."""
    return _set(("bracket",), [{"args": list(args), "value": value} for args, value in entries])


def _cochain(*values):
    """A mutation attaching one degree-2 cochain with (args, value) entries, args as in :func:`_bracket`."""
    return _set(("cochains",), [{"degree": 2, "values": [{"args": list(args), "value": v} for args, v in values]}])


def _check_malformed(tmp_path, mutate, command="check") -> str:
    """Run ``command`` on the mutated one-entry file; return its one error line."""
    doc = _one_entry_doc()
    mutate(doc)
    return _check_unreadable(tmp_path, json.dumps(doc).encode(), command)


def _check_unreadable(tmp_path, content: bytes, command="check") -> str:
    """Run ``command`` on a file holding ``content``; return its one error line."""
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    result = run_cli(command, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestMalformedFile:
    @pytest.mark.parametrize(
        "mutate",
        [_list_value, _string_degree, _int_bracket, _unknown_cochain_label],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, mutate):
        _check_malformed(tmp_path, mutate)

    @pytest.mark.parametrize(
        "mutate",
        [
            _set(("basis", 0, "parity"), "0"),
            _set(("basis", 0, "parity"), False),
            _set(("basis", 0, "parity"), True),
            _set(("basis", 0, "label"), 5),
            _set(("multiplicative",), "false"),
            _set(("skew_complete",), "no"),
        ],
        ids=["parity-string", "parity-false", "parity-true", "label-int", "multiplicative-string", "skew-complete-string"],
    )
    def test_basis_entries_and_flags_are_typed(self, tmp_path, mutate):
        """Each of these loaded silently (and could then pass) or blamed the
        wrong field; each now exits 2 with one error line naming the field."""
        assert f'"{mutate.field}"' in _check_malformed(tmp_path, mutate)

    @pytest.mark.parametrize(
        "mutate",
        [
            _with_operator(parity=1),
            _with_operator(parity=True),
            _with_operator(parity=False),
            _with_operator(power=True),
            _with_operator(power="1"),
        ],
        ids=["rota-baxter-odd", "parity-true", "parity-false", "power-true", "power-string"],
    )
    def test_operator_fields_are_typed(self, tmp_path, mutate):
        """An odd rota_baxter operator made rb-verify die with a traceback (exit 1);
        boolean parity and power loaded as 1/0 and could pass.  Each now exits 2
        with one error line naming the field."""
        assert f'"{mutate.field}"' in _check_malformed(tmp_path, mutate, "rb-verify")


    @pytest.mark.parametrize("name", [None, {"a": True}, 17, ["g"]], ids=["null", "object", "integer", "array"])
    def test_name_must_be_a_string(self, tmp_path, name):
        """Any JSON value loaded as the name, and induce wrote its Python repr into the
        output ("None_iter_3"); such a document now exits 2 with one error line."""
        path = tmp_path / "named.json"
        path.write_text(json.dumps(dict(_one_entry_doc(), name=name)))
        result = run_cli("induce", str(path), "--method", "iterate", "--n", "3")
        assert (result.returncode, result.stdout, result.stderr) == (2, "", 'error: "name" must be a string\n')

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000],
        ids=["not-utf8", "nested-past-recursion-limit"],
    )
    def test_unreadable_text_exit_two(self, tmp_path, content):
        """A file that is not UTF-8 and one nested past the recursion limit each
        died with a traceback (exit 1); each now exits 2 with one error line."""
        _check_unreadable(tmp_path, content)


    @pytest.mark.parametrize("form", ["string", "denominator", "bare"])
    def test_oversized_scalar_exit_two(self, tmp_path, form):
        """A scalar with more digits than int() converts (4300) made check exit 3
        with a traceback, as a "p" string, a "1/q" string or a bare JSON integer;
        each now exits 2 with one error line."""
        digits = "7" * 5000
        doc = _one_entry_doc()
        doc["bracket"][0]["value"]["b"] = {"string": digits, "denominator": "1/" + digits, "bare": "BARE"}[form]
        text = json.dumps(doc).replace('"BARE"', digits)
        assert len(_check_unreadable(tmp_path, text.encode())) < 200

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (
                _bracket(("ab", {"a": "1/2"}), ("ba", {"a": "1/2"})),
                "error: inconsistent values on ('a', 'b'): orbit forces (1/2)*a, found (-1/2)*a",
            ),
            (
                _bracket(("aa", {"b": "1"})),
                "error: inconsistent values on ('a', 'a'): orbit forces (1)*b, found (-1)*b",
            ),
            (
                _bracket(("ab", {"a": "0"}), ("ba", {"a": "2", "b": "-1/3"})),
                "error: inconsistent values on ('a', 'b'): orbit forces 0, found (-2)*a + (1/3)*b",
            ),
            (
                _cochain(("ab", "1"), ("ba", "1")),
                "error: bad cochain 0: inconsistent values on ('a', 'b'): orbit forces 1, found -1",
            ),
            (
                _cochain(("aa", "-1")),
                "error: bad cochain 0: inconsistent values on ('a', 'a'): orbit forces -1, found 1",
            ),
        ],
        ids=[
            "bracket-disagree", "bracket-repeated-even", "bracket-zero-generator", "cochain-disagree", "cochain-repeated-even",
        ],
    )
    def test_orbit_conflict_error_line(self, tmp_path, mutate, line):
        """Each conflict names the first tuple the completion meets and both values it saw there."""
        assert _check_malformed(tmp_path, mutate) == line

    @pytest.mark.parametrize(
        "value, line",
        [
            ("1.5", "error: bad scalar '1.5' in bracket ('a', 'b'): expected 'p' or 'p/q'"),
            ("1/0", "error: bad scalar '1/0' in bracket ('a', 'b'): zero denominator"),
            ("\u0663", "error: bad scalar '\u0663' in bracket ('a', 'b'): expected 'p' or 'p/q'"),
            ("\xa03\u3000", "error: bad scalar '\\xa03\\u3000' in bracket ('a', 'b'): expected 'p' or 'p/q'"),
            (
                "7" * 5000,
                f"error: bad scalar in bracket ('a', 'b'): Exceeds the limit ({sys.get_int_max_str_digits()} digits) "
                "for integer string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
                "the limit",
            ),
        ],
        ids=["grammar", "zero-denominator", "non-ascii-digit", "unicode-padding", "oversized"],
    )
    def test_bad_scalar_error_line(self, tmp_path, value, line):
        assert _check_malformed(tmp_path, _set(("bracket", 0, "value", "b"), value)) == line

    def test_duplicate_cochain_entry(self, tmp_path):
        """A cochain listing the same args twice loaded with the last value; now it is an error, as for brackets."""
        values = [{"args": ["a"], "value": "1"}, {"args": ["a"], "value": "2"}]
        mutate = _set(("cochains",), [{"degree": 1, "values": values}])
        assert _check_malformed(tmp_path, mutate) == "error: bad cochain 0: duplicate entry ('a',)"

    def test_unknown_operator_kind(self, tmp_path):
        assert _check_malformed(tmp_path, _with_operator(kind="derivative"), "rb-verify") == (
            "error: unknown operator kind 'derivative'"
        )


def _oversized_twist_file(tmp_path):
    """osp12 with two twist entries of 2,200 digits: the loader takes them, the output outgrows int()."""
    shown = run_cli("catalog", "show", "osp12")
    doc = json.loads("\n".join(l for l in shown.stdout.splitlines() if not l.startswith("#")))
    doc["twists"][0][0][0] = doc["twists"][0][2][2] = "7" * 2200
    path = tmp_path / "osp12_big.json"
    path.write_text(json.dumps(doc))
    return path


def _oversized_cochain_file(tmp_path):
    """g5_1_1 with a 2,200-digit degree-1 cochain, whose wedge obstruction fails with a longer scalar."""
    from homnambu import algfile
    from homnambu.catalog import catalog_build
    from homnambu.cochains import SuperCochain

    bundle = catalog_build("g5_1_1", a=1)
    phi = SuperCochain(bundle.algebra.space, 1, {("e0",): int("7" * 2200)})
    path = tmp_path / "g5_big.json"
    path.write_text(algfile.emit(algfile.AlgebraBundle("g5_big_form", bundle.algebra, (phi,), bundle.operators)))
    return path


class TestOversizedOutput:
    """An output scalar with more digits than int() converts made these exit 3
    with a traceback; each now exits 2 with one error line and no output."""

    @pytest.mark.parametrize(
        "make, args",
        [
            (_oversized_twist_file, ["check"]),
            (_oversized_twist_file, ["check", "--report", "structured"]),
            (_oversized_twist_file, ["induce", "--method", "iterate", "--n", "3"]),
            (_oversized_cochain_file, ["induce", "--method", "phi", "--n", "3"]),
        ],
        ids=["check", "check-structured", "induce-iterate", "induce-phi-failing"],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, make, args):
        result = run_cli(args[0], str(make(tmp_path)), *args[1:])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: an output scalar has more than {sys.get_int_max_str_digits()} digits"]


class TestInternalError:
    def test_exit_three_with_traceback(self, monkeypatch, capsys):
        """An exception that is neither an identity failure nor an input
        problem exits 3, so exit 1 keeps meaning that an identity failed."""
        from homnambu import cli

        def broken(*args, **kwargs):
            raise RuntimeError("broken checker")

        monkeypatch.setattr(cli, "check_grading", broken)
        assert cli.main(["check", "catalog:g3_1_1"]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert captured.err.rstrip().endswith("RuntimeError: broken checker")


class TestInduce:
    def test_failing_cochain_text_report(self, tmp_path):
        """Scalar sides of a failing cochain identity read as reduced fractions,
        as in the structured report; the text report printed Fraction(-1, 1)."""
        from homnambu import algfile
        from homnambu.catalog import catalog_build
        from homnambu.cochains import SuperCochain

        bundle = catalog_build("g5_1_1")
        phi = SuperCochain(bundle.algebra.space, 1, {("e0",): 1})
        path = tmp_path / "g5_phi.json"
        path.write_text(algfile.emit(algfile.AlgebraBundle("g5_phi", bundle.algebra, (phi,), bundle.operators)))
        result = run_cli("induce", str(path), "--method", "phi", "--n", "3")
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            "FAIL wedge-obstruction (tuples=8, failures=3)",
            "  at (e0, e1, e1): lhs=-1 rhs=0",
            "  at (e1, e0, e1): lhs=1 rhs=0",
            "  at (e1, e1, e0): lhs=-1 rhs=0",
            "FAIL twist-invariance (tuples=2, failures=1)",
            "  at (e0): lhs=4 rhs=1",
        ]

    def test_arity_below_two_exit_two(self):
        result = run_cli(
            "induce", "catalog:g3_1_1?a=2", "--method", "iterate", "--n", "1"
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: --n must be at least 2"]

    def test_phi_golden_value(self):
        result = run_cli("induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3")
        assert result.returncode == 0
        doc = json.loads(
            "\n".join(l for l in result.stdout.splitlines() if not l.startswith("#"))
        )
        entries = {tuple(e["args"]): e["value"] for e in doc["bracket"]}
        assert entries[("e2", "e3", "e3")] == {"e1": "3"}
        assert "# verification summary:" in result.stdout

    def test_iterate_golden_value(self):
        result = run_cli(
            "induce", "catalog:g3_1_1?a=2", "--method", "iterate", "--n", "4"
        )
        assert result.returncode == 0
        doc = json.loads(
            "\n".join(l for l in result.stdout.splitlines() if not l.startswith("#"))
        )
        entries = {tuple(e["args"]): e["value"] for e in doc["bracket"]}
        assert entries[("e1", "e0", "e0", "e0")] == {"e1": "-1"}

    def test_failing_wedge_names_condition(self):
        # the perturbed form lives in a file so the failure path is exercised
        result = run_cli(
            "induce", "catalog:g5_1_1?a=1", "--method", "phi", "--n", "3"
        )
        # g5 carries no cochain: input problem
        assert result.returncode == 2

    def test_wedge_failure_exit_one(self, tmp_path):
        from homnambu import algfile
        from homnambu.catalog import catalog_build
        from homnambu.cochains import SuperCochain

        bundle = catalog_build("g5_1_1", a=1)
        phi = SuperCochain(bundle.algebra.space, 1, {("e0",): 1})
        doctored = algfile.AlgebraBundle(
            "g5_with_form", bundle.algebra, (phi,), bundle.operators
        )
        path = tmp_path / "g5form.json"
        path.write_text(algfile.emit(doctored))
        result = run_cli("induce", str(path), "--method", "phi", "--n", "3")
        assert result.returncode == 1
        assert "wedge-obstruction" in result.stdout

    def test_phi_on_a_non_skew_bracket_exit_two(self, tmp_path):
        doc = {
            "name": "not_skew",
            "basis": [{"label": "e0", "parity": 0}, {"label": "e1", "parity": 0}],
            "arity": 2,
            "multiplicative": True,
            "twists": [[["1", "0"], ["0", "1"]]],
            "bracket": [{"args": ["e0", "e1"], "value": {"e0": "1"}}],
            "skew_complete": False,
            "cochains": [{"degree": 1, "values": [{"args": ["e1"], "value": "1"}]}],
        }
        path = tmp_path / "not_skew.json"
        path.write_text(json.dumps(doc))
        result = run_cli("induce", str(path), "--method", "phi", "--n", "3")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: induction needs a super-skew bracket: FAIL super-skew (tuples=4, failures=2)"
        ]

    def test_negative_cochain_index_exit_two(self):
        result = run_cli(
            "induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3", "--cochain", "-1"
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: no cochain with index -1"]

    def test_output_reloads(self, tmp_path):
        result = run_cli("induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3")
        path = tmp_path / "tern.json"
        path.write_text(result.stdout)
        check = run_cli("check", str(path), "--identity", "nambu")
        assert check.returncode == 0


class TestDerive:
    def test_g5_dimension_one(self):
        result = run_cli(
            "derive", "catalog:g5_1_1?a=2", "--k", "0", "--parity", "0",
            "--report", "structured",
        )
        doc = json.loads(result.stdout)
        assert doc["dimension"] == 1
        assert doc["basis"][0] == [["2", "0"], ["0", "1"]]

    def test_abelian_full_block(self):
        result = run_cli(
            "derive", "catalog:g1_0_2", "--k", "0", "--parity", "0",
            "--report", "structured",
        )
        assert json.loads(result.stdout)["dimension"] == 4

    def test_text_output(self):
        result = run_cli("derive", "catalog:g3_1_1?a=2", "--k", "0", "--parity", "0")
        assert result.stdout.startswith("dimension 1")

    def test_power_too_long_to_print_exit_two(self):
        """map_power composed the twist k times, so this ran for about a minute before it exited 2."""
        result = run_cli("derive", "catalog:osp12", "--k", "30000", "--parity", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {OversizedScalar()}"]


class TestRbVerify:
    def test_g5_operator(self):
        result = run_cli("rb-verify", "catalog:g5_1_1?a=2")
        assert result.returncode == 0
        assert "PASS rota-baxter" in result.stdout

    def test_missing_operator(self):
        result = run_cli("rb-verify", "catalog:g4_1_1?a=2")
        assert result.returncode == 2

    def test_negative_operator_index_exit_two(self, tmp_path):
        induced = run_cli("induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3")
        path = tmp_path / "tern.json"
        path.write_text(induced.stdout)
        result = run_cli("rb-verify", str(path), "--operator", "-1")
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["error: no operator with index -1"]


def _induced_l1(tmp_path, matrix=None):
    """The ternary bracket induced from L1 (a=1, b=3), its operator's matrix optionally replaced."""
    induced = run_cli("induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3")
    path = tmp_path / "tern.json"
    if matrix is None:
        path.write_text(induced.stdout)
    else:
        doc = json.loads("\n".join(l for l in induced.stdout.splitlines() if not l.startswith("#")))
        doc["operators"][0]["matrix"] = matrix
        path.write_text(json.dumps(doc))
    return path


# Every report of one prelie run on the induced L1 file with an invertible operator, in order.
_INVERTIBLE_BATTERY = (
    ("grading", 3),
    ("super-skew", 27),
    ("nambu", 243),
    ("rota-baxter-nary(weight=0)", 30),
    ("3-pre-lie", 513),
    ("sub-adjacent-3-hom-lie", 273),
    ("derived-identities", 486),
    ("rb-morphism", 27),
    ("supercommutator-compatibility", 27),
)
_DIAGONAL = [["1/3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


class TestPrelie:
    def test_full_battery_on_induced_file(self, tmp_path):
        result = run_cli("prelie", str(_induced_l1(tmp_path)))
        assert result.returncode == 0
        for name in ("3-pre-lie", "sub-adjacent-3-hom-lie", "derived-identities", "rb-morphism"):
            assert f"PASS {name}" in result.stdout

    def test_invertible_operator_adds_compatibility(self, tmp_path):
        result = run_cli("prelie", str(_induced_l1(tmp_path, _DIAGONAL)))
        assert result.returncode == 0
        assert result.stdout == "".join(
            f"PASS {name} (tuples={tuples}, failures=0)\n" for name, tuples in _INVERTIBLE_BATTERY
        )

    def test_invertible_operator_structured(self, tmp_path):
        path = _induced_l1(tmp_path, _DIAGONAL)
        result = run_cli("prelie", str(path), "--report", "structured")
        assert result.returncode == 0
        checks = [
            {"identity": name, "passed": True, "tuples_checked": tuples, "failures": 0, "counterexamples": []}
            for name, tuples in _INVERTIBLE_BATTERY
        ]
        doc = {"command": "prelie", "source": str(path), "name": "L1_phi_3", "checks": checks, "passed": True}
        assert result.stdout == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def test_failing_operator_stops_after_preconditions(self, tmp_path):
        """The identity is not Rota-Baxter here: only the four precondition reports print."""
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        result = run_cli("prelie", str(_induced_l1(tmp_path, identity)))
        assert result.returncode == 1
        assert result.stdout == (
            "PASS grading (tuples=3, failures=0)\n"
            "PASS super-skew (tuples=27, failures=0)\n"
            "PASS nambu (tuples=243, failures=0)\n"
            "FAIL rota-baxter-nary(weight=0) (tuples=30, failures=3)\n"
            "  at (e2, e3, e3): lhs=(3)*e1 rhs=(9)*e1\n"
            "  at (e3, e2, e3): lhs=(-3)*e1 rhs=(-9)*e1\n"
            "  at (e3, e3, e2): lhs=(3)*e1 rhs=(9)*e1\n"
        )

    def test_needs_ternary(self):
        result = run_cli("prelie", "catalog:g3_1_1?a=2")
        assert result.returncode == 2


class TestCatalogCommands:
    def test_list(self):
        result = run_cli("catalog", "list")
        assert result.returncode == 0
        for name in ("g1_0_2", "g5_1_1", "osp12", "L1", "L2"):
            assert name in result.stdout

    def test_show(self):
        result = run_cli("catalog", "show", "g5_1_1")
        assert result.returncode == 0
        assert '"name": "g5_1_1"' in result.stdout

    @pytest.mark.parametrize(
        "args, line",
        [
            (("catalog", "show"), "homnambu: error: catalog show needs an entry name"),
            (("catalog", "list", "osp12"), "homnambu: error: catalog list takes no entry name"),
        ],
    )
    def test_name_where_the_action_cannot_take_it_exit_two(self, args, line):
        """``catalog list NAME`` printed the whole list and exited 0, ignoring NAME."""
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: homnambu ")
        assert result.stderr.splitlines()[-1] == line


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "catalog:osp12?lambda=2", "--twist", "identity"),
            ("check", "catalog:g5_1_1?a=2", "--report", "structured"),
            ("induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"),
            ("induce", "catalog:g3_1_1?a=2", "--method", "iterate", "--n", "4"),
            ("derive", "catalog:g3_1_1?a=2", "--k", "0", "--parity", "0"),
            ("catalog", "list"),
        ],
    )
    def test_byte_identical_across_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.returncode == second.returncode


class TestProcessEntry:
    def test_main_leaves_the_collector_alone(self, capsys):
        """Tests, the corpus and the benchmark's replays call main in-process: it must not freeze their heap."""
        from homnambu import cli

        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(["catalog", "show", "g3_1_1"]) == 0
        assert cli.main(["check", "catalog:nope"]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before
        capsys.readouterr()

    def test_run_flushes_both_streams_then_exits_with_the_code_of_main(self, monkeypatch):
        from homnambu import cli

        events = []

        class Stream(io.StringIO):
            def flush(self):
                events.append(("flush", self.getvalue()))

        class Exited(Exception):
            pass

        def _exit(code):
            events.append(("exit", code))
            raise Exited  # os._exit never returns

        monkeypatch.setattr(sys, "argv", ["homnambu", "check", "catalog:nope"])
        monkeypatch.setattr(sys, "stdout", Stream())
        monkeypatch.setattr(sys, "stderr", Stream())
        monkeypatch.setattr(os, "_exit", _exit)
        with pytest.raises(Exited):
            cli.run()
        assert events[-3:] == [("flush", ""), ("flush", "error: unknown catalog entry 'nope'\n"), ("exit", 2)]

    def test_run_returns_the_code_of_main_when_a_flush_fails(self, monkeypatch, capsys):
        """The interpreter's own exit then flushes again and reports the failure, as it does without ``run``."""
        from homnambu import cli

        def broken():
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "argv", ["homnambu", "check", "catalog:nope"])
        monkeypatch.setattr(sys.stdout, "flush", broken)
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit after a failed flush"))
        assert cli.run() == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "error: unknown catalog entry 'nope'\n")

    @pytest.mark.parametrize("argv", [["check", "-h"], ["check"]])
    def test_help_and_usage_errors_exit_through_argparse(self, argv, monkeypatch):
        """Argparse's SystemExit passes through ``run``: the reference parser's bytes and exit code."""
        import cli_reference

        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        done = subprocess.run(CLI + argv, capture_output=True, timeout=300)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
            cli_reference.build_parser().parse_args(argv)
        assert exited.value.code == (0 if "-h" in argv else 2)
        assert (done.returncode, done.stdout, done.stderr) == (exited.value.code, out.getvalue().encode(), err.getvalue().encode())

    def test_a_closed_stdout_is_an_internal_error(self):
        """The write into a pipe nobody reads fails inside main: exit 3 and the BrokenPipeError traceback."""
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(CLI + ["catalog", "show", "g3_1_1"], stdout=write, stderr=subprocess.PIPE, timeout=300)
        finally:
            os.close(write)
        assert done.returncode == 3
        assert done.stderr.startswith(b"Traceback (most recent call last):\n")
        assert done.stderr.endswith(b"\nBrokenPipeError: [Errno 32] Broken pipe\n")

    def test_the_installed_script_is_run(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert 'homnambu = "homnambu.cli:run"' in pyproject.splitlines()
