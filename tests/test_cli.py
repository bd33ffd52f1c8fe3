import json
import subprocess
import sys

import pytest

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
