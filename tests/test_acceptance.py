"""Acceptance suite: one test per criterion, exact equality throughout.

Each test funnels through ``record_criterion`` so a one-line PASS/FAIL verdict
per criterion is printed during the run and echoed in the terminal summary
(run with ``pytest tests/test_acceptance.py -s`` to see the lines inline).
"""

import itertools
import subprocess
import sys
from fractions import Fraction as F

from conftest import record_criterion

from homnambu.axioms import (
    check_grading,
    check_hom_jacobi,
    check_multiplicative,
    check_nambu_identity,
    check_super_skew,
)
from homnambu.catalog import catalog_build, catalog_list, hom_lie_entries
from homnambu.cochains import (
    SuperCochain,
    check_induction_conditions,
    cochain_induced_bracket,
)
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    element_at,
    map_power,
)
from homnambu.derivations import (
    DerivationCandidate,
    check_derivation,
    check_derivation_closure,
    inner_derivation,
    solve_derivation_space,
)
from homnambu.iterated import iterated_bracket
from iterated_oracle import iterated_eval
from homnambu.linalg import invert_map
from homnambu.prelie import (
    check_3_pre_lie,
    check_derived_identities,
    compatibility_report,
    image_product,
    rb_induced_product,
    rb_morphism_report,
    sub_adjacent,
)
from homnambu.rotabaxter import (
    RotaBaxterOperator,
    check_inverse_derivation_equiv,
    check_phi_rb_kernel_condition,
    check_rb,
    _rb_tables,
)


def algebra_of(name, **params):
    return catalog_build(name, **params).algebra


def diag(space, values, parity=0):
    d = space.dim
    rows = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return GradedLinearMap.from_matrix(space, rows, parity=parity)


CLASSIFICATION = ("g1_0_2", "g2_1_1", "g3_1_1", "g4_1_1", "g5_1_1")


def test_criterion_01_classification_fixtures():
    ok = True
    for name in CLASSIFICATION:
        for a in (F(2), F(1, 2), F(-3)):
            alg = algebra_of(name, a=a)
            ok &= check_grading(alg).passed
            ok &= check_super_skew(alg).passed
            ok &= check_hom_jacobi(alg).passed
            ok &= check_multiplicative(alg).passed
    record_criterion(
        "1", "classification fixtures pass all four identities at a in {2, 1/2, -3}", ok
    )


def test_criterion_02_twisted_osp():
    ok = True
    for lam in (F(2), F(1, 2), F(-1)):
        ok &= check_hom_jacobi(algebra_of("osp12", **{"lambda": lam})).passed
    alg = algebra_of("osp12", **{"lambda": 2})
    ident = GradedLinearMap.identity(alg.space)
    untwisted = HomSuperAlgebra(alg.space, alg.bracket, (ident,), multiplicative_flag=True)
    report = check_hom_jacobi(untwisted)
    ok &= not report.passed
    ok &= len(report.counterexamples) >= 1
    record_criterion(
        "2",
        "twisted osp family passes the twisted Jacobi identity; identity twist "
        "fails with a reported witness",
        ok,
    )


def test_criterion_03_induction_equivalence():
    ok = True
    for a, b in ((F(1), F(3)), (F(2), F(5))):
        bundle = catalog_build("L1", a=a, b=b)
        alg, phi = bundle.algebra, bundle.cochains[0]
        ok &= check_induction_conditions(phi, alg).passed
        tern = cochain_induced_bracket(phi, alg, 3)
        ok &= check_super_skew(tern).passed
        ok &= check_nambu_identity(tern).passed
        ok &= check_multiplicative(tern).passed
        # reverse: adding the e1-dual breaks the wedge condition
        bad = SuperCochain(alg.space, 1, {("e1",): 1, ("e2",): b})
        conditions = check_induction_conditions(bad, alg)
        bad_tern = cochain_induced_bracket(bad, alg, 3)
        ok &= (not conditions.passed) or (not check_nambu_identity(bad_tern).passed)
        ok &= not conditions.passed
    # both directions on a twisted-Jacobi-verified base: violated wedge
    # condition forces the induced ternary to fail the fundamental identity
    for a in (F(1), F(-1)):
        g5 = algebra_of("g5_1_1", a=a)
        phi = SuperCochain(g5.space, 1, {("e0",): 1})
        conditions = check_induction_conditions(phi, g5)
        ok &= not conditions.wedge.passed
        ok &= conditions.twist.passed
        tern = cochain_induced_bracket(phi, g5, 3)
        ok &= not check_nambu_identity(tern).passed
    record_criterion(
        "3", "cochain-induction conditions are equivalent to the induced "
        "ternary structure verifying, in both directions", ok
    )


def test_criterion_04_ternary_golden_value():
    ok = True
    for b in (F(3), F(5)):
        bundle = catalog_build("L1", a=1, b=b)
        tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
        ok &= tern.bracket.value(("e2", "e3", "e3")) == Element({"e1": b})
    record_criterion("4", "induced ternary golden value [e2,e3,e3] = b*e1 for b in {3, 5}", ok)


def test_criterion_05_nested_bracket_suite():
    ok = True
    # property suite over the entries satisfying the construction's hypothesis
    # (the two 3-dim entries fail the twisted Jacobi identity exactly, so the
    # construction theorem does not cover them; see the decisions ledger)
    for entry in hom_lie_entries():
        alg = entry.build().algebra
        for n in (3, 4, 5):
            nested = iterated_bracket(alg, n)
            ok &= check_nambu_identity(nested).passed
            ok &= check_multiplicative(nested).passed
            ok &= all(t == map_power(alg.twist, n - 1) for t in nested.twists)
    # golden values: alternating signs on g3
    g3 = algebra_of("g3_1_1", a=2)
    for n in (3, 4, 5):
        value = iterated_bracket(g3, n).bracket.value(("e1",) + ("e0",) * (n - 1))
        ok &= value == Element({"e1": (-1) ** (n - 1)})
    # g4: published closed form -(-a)^(n-2) agrees with the recursion at n = 3;
    # at n = 4, 5 the recursion (the defining formula) stacks twist powers and
    # is pinned via an independent recursive evaluation
    a = F(3)
    g4 = algebra_of("g4_1_1", a=a)
    nested3 = iterated_bracket(g4, 3)
    ok &= nested3.bracket.value(("e1", "e0", "e0")) == Element({"e1": -((-a) ** 1)})
    for n in (4, 5):
        nested = iterated_bracket(g4, n)
        args = ("e1",) + ("e0",) * (n - 1)
        oracle = iterated_eval(g4, [g4.space.basis_element(x) for x in args], n)
        ok &= nested.bracket.value(args) == oracle
        ok &= oracle == Element({"e1": (-1) ** (n - 1) * a ** ((n - 1) * (n - 2) // 2)})
    record_criterion(
        "5",
        "nested brackets of twisted-Jacobi-verified entries pass the fundamental "
        "identity and multiplicativity at twist power n-1, with golden values "
        "pinned to the defining recursion",
        ok,
    )


def test_criterion_06_three_dim_nested_values():
    b, c = F(2), F(3)
    L2 = algebra_of("L2", a=1, b=b, c=c)
    nested3 = iterated_bracket(L2, 3)
    ok = nested3.bracket.value(("e1", "e3", "e3")) == Element({"e1": b * c})
    ok &= nested3.bracket.value(("e2", "e3", "e3")) == Element({"e2": b * c})
    # n = 4, 5 pinned to the recursion oracle, not the published closed form
    for n, expected in (
        (4, {("e1",): Element({"e2": b * b * c}), ("e2",): Element({"e1": b * c * c})}),
        (5, {("e1",): Element({"e1": b * b * c * c}), ("e2",): Element({"e2": b * b * c * c})}),
    ):
        nested = iterated_bracket(L2, n)
        for head, want in expected.items():
            args = head + ("e3",) * (n - 1)
            oracle = iterated_eval(L2, [L2.space.basis_element(x) for x in args], n)
            ok &= oracle == want
            ok &= nested.bracket.value(args) == want
    record_criterion(
        "6",
        "3-dim nested values: bc*e1 and bc*e2 at arity 3; higher arities pinned "
        "to the recursion oracle",
        ok,
    )


def test_criterion_07_derivation_solver():
    from test_derivations import flatten, sympy_derivation_basis
    import sympy

    ok = True
    expectations = {
        "g3_1_1": [[0, 0], [0, 1]],
        "g5_1_1": [[2, 0], [0, 1]],
    }
    for name, want in expectations.items():
        alg = algebra_of(name, a=2)
        basis = solve_derivation_space(alg, 0, 0)
        ok &= len(basis) == 1
        ok &= basis[0].matrix() == [[F(v) for v in row] for row in want]
        unknowns, oracle = sympy_derivation_basis(alg, 0, 0)
        ok &= len(oracle) == 1
        vec = [sympy.Rational(v) for v in flatten(alg.space, basis[0], 0)]
        span = sympy.Matrix(oracle)
        ok &= span.rank() == span.col_join(sympy.Matrix([vec])).rank()
    record_criterion(
        "7",
        "even derivation spaces of g3 and g5 at a=2 are one-dimensional with the "
        "canonical bases, matching an independent dense elimination",
        ok,
    )


def test_criterion_08_inner_derivations():
    ok = True
    nonvacuous = 0
    for entry in hom_lie_entries():
        alg = entry.build().algebra
        alpha = alg.twists[0]
        for label in alg.space.labels:
            if alpha.apply_basis(label) != alg.space.basis_element(label):
                continue
            for k in (0, 1):
                cand = inner_derivation(alg, [label], k)
                ok &= cand.power == k + 1
                ok &= check_derivation(cand, alg).passed
                nonvacuous += 1
    ok &= nonvacuous > 0
    record_criterion(
        "8",
        "adjoints of twist-fixed basis tuples verify as power-(k+1) derivations "
        f"for k in {{0, 1}} ({nonvacuous} instances)",
        ok,
    )


def test_criterion_09_closure():
    ok = True
    pairs = 0
    for name in ("g2_1_1", "g3_1_1", "g5_1_1"):
        alg = algebra_of(name, a=2)
        cands = []
        for k in (0, 1):
            for parity in (0, 1):
                cands.extend(
                    DerivationCandidate(m, k)
                    for m in solve_derivation_space(alg, k, parity)
                )
        for c1, c2 in itertools.product(cands, repeat=2):
            report = check_derivation_closure(c1, c2, alg)
            ok &= report.passed
            pairs += 1
    ok &= pairs > 0
    record_criterion(
        "9",
        f"supercommutators of solved derivation bases close at summed powers "
        f"({pairs} pairs)",
        ok,
    )


def test_criterion_10_rota_baxter():
    ok = True
    g5 = algebra_of("g5_1_1", a=2)
    halving = diag(g5.space, [F(1, 2), 1])
    ok &= check_rb(RotaBaxterOperator(halving, F(0)), g5).passed
    equiv = check_inverse_derivation_equiv(halving, g5)
    ok &= equiv.rb.passed and equiv.inverse_derivation.passed and equiv.agree
    ok &= invert_map(halving).matrix() == [[F(2), F(0)], [F(0), F(1)]]
    for entry in catalog_list():
        alg = entry.build().algebra
        rb = RotaBaxterOperator(GradedLinearMap.identity(alg.space), F(-1))
        ok &= check_rb(rb, alg).passed
    # subset-sum expansion against the printed seven-term form
    bundle = catalog_build("L1", a=2, b=3)
    tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
    from test_rotabaxter import seven_term_reference

    probe = diag(tern.space, [1, 2, 3])
    for weight in (F(0), F(1), F(-1), F(2)):
        rb = RotaBaxterOperator(probe, weight)
        _, right = _rb_tables(rb, tern)
        for args in tern.space.tuples(3):
            ok &= element_at(right, args) == seven_term_reference(rb, tern, args)
    record_criterion(
        "10",
        "halving operator is weight-0 on g5 and its inverse is the solved "
        "derivation; identity is weight -1 everywhere; ternary subset sum "
        "matches the printed seven-term expansion at four weights",
        ok,
    )


def test_criterion_11_rb_transfer():
    test_set = [
        ("g5_1_1", {"a": 2}, [[F(1, 2), 0], [0, 1]]),
        ("g3_1_1", {"a": 2}, [[1, 0], [0, 0]]),
        ("L1", {"a": 1, "b": 3}, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ]
    ok = True
    for name, params, rows in test_set:
        alg = algebra_of(name, **params)
        rb = RotaBaxterOperator(
            GradedLinearMap.from_matrix(alg.space, rows), F(0)
        )
        ok &= check_rb(rb, alg).passed
        for n in (3, 4):
            ok &= check_rb(rb, iterated_bracket(alg, n)).passed
    record_criterion(
        "11", "every verified weight-0 operator in the test set transfers to the "
        "nested arity-3 and arity-4 brackets", ok
    )


def test_criterion_12_kernel_condition_equivalence():
    ok = True
    for a, b in ((F(1), F(3)), (F(2), F(5))):
        bundle = catalog_build("L1", a=a, b=b)
        alg, phi = bundle.algebra, bundle.cochains[0]
        operators = {
            "zero": GradedLinearMap.zero(alg.space),
            "identity": GradedLinearMap.identity(alg.space),
            "projection": bundle.operators[0].map,
        }
        for R in operators.values():
            report = check_phi_rb_kernel_condition(R, phi, alg, 3)
            ok &= report.agree
    record_criterion(
        "12",
        "kernel-membership condition and the induced-bracket operator verdicts "
        "agree for the zero, identity and projection operators",
        ok,
    )


def test_criterion_13_pre_lie_battery():
    ok = True
    bundle = catalog_build("L1", a=1, b=3)
    tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
    g5tern = iterated_bracket(algebra_of("g5_1_1", a=2), 3)
    test_set = [
        (tern, GradedLinearMap.zero(tern.space)),
        (tern, bundle.operators[0].map),
        (tern, diag(tern.space, [F(1, 3), 1, 1])),
        (g5tern, diag(g5tern.space, [F(1, 2), 1])),
    ]
    for alg3, R in test_set:
        rb = RotaBaxterOperator(R, F(0))
        ok &= check_rb(rb, alg3).passed
        product = rb_induced_product(alg3, rb)
        ok &= check_3_pre_lie(product).passed
        _, adjacent = sub_adjacent(product)
        ok &= adjacent.passed
        ok &= check_derived_identities(product).passed
        ok &= rb_morphism_report(product, alg3, rb).passed
        try:
            invert_map(R)
        except ValueError:
            continue
        compatible = image_product(alg3, rb)
        ok &= compatibility_report(compatible, alg3).passed
    record_criterion(
        "13",
        "operator-induced ternary products verify all pre-Lie axioms, the "
        "sub-adjacent structure, the derived identities and the morphism "
        "identity; invertible operators yield compatible products",
        ok,
    )


def test_criterion_14_cli_determinism():
    commands = [
        ["check", "catalog:g3_1_1?a=5", "--identity", "all"],
        ["check", "catalog:osp12?lambda=2", "--twist", "identity"],
        ["check", "catalog:g5_1_1?a=2", "--report", "structured"],
        ["induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"],
        ["derive", "catalog:g5_1_1?a=2", "--k", "0", "--parity", "0"],
        ["catalog", "list"],
    ]
    ok = True
    for command in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "homnambu.cli"] + command,
                capture_output=True,
                timeout=300,
            )
            for _ in range(2)
        ]
        ok &= runs[0].stdout == runs[1].stdout
        ok &= runs[0].stderr == runs[1].stderr
        ok &= runs[0].returncode == runs[1].returncode
    record_criterion("14", "repeated CLI invocations are byte-identical", ok)
