import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu.catalog import catalog_build, catalog_list
from homnambu.cochains import cochain_induced_bracket
from homnambu.axioms import CheckReport, Counterexample
from homnambu.core import Element, GradedLinearMap, HomSuperAlgebra, NaryBracket, eval_bracket
from homnambu.iterated import iterated_bracket
from homnambu.rotabaxter import (
    RotaBaxterOperator,
    check_inverse_derivation_equiv,
    check_phi_rb_kernel_condition,
    check_rb,
)
import random_inputs


def algebra_of(name, **params):
    return catalog_build(name, **params).algebra


def diag(space, values, parity=0):
    d = space.dim
    rows = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return GradedLinearMap.from_matrix(space, rows, parity=parity)


def binary_entries():
    return [e for e in catalog_list()]


class TestBinary:
    def test_zero_operator(self):
        for entry in binary_entries():
            alg = entry.build().algebra
            rb = RotaBaxterOperator(GradedLinearMap.zero(alg.space), F(0))
            assert check_rb(rb, alg).passed

    def test_identity_at_weight_minus_one(self):
        for entry in binary_entries():
            alg = entry.build().algebra
            rb = RotaBaxterOperator(GradedLinearMap.identity(alg.space), F(-1))
            assert check_rb(rb, alg).passed

    def test_g5_halving_operator(self):
        g5 = algebra_of("g5_1_1", a=2)
        rb = RotaBaxterOperator(diag(g5.space, [F(1, 2), 1]), F(0))
        assert check_rb(rb, g5).passed

    def test_identity_weight_zero_fails_on_nonzero_bracket(self):
        g3 = algebra_of("g3_1_1", a=2)
        rb = RotaBaxterOperator(GradedLinearMap.identity(g3.space), F(0))
        report = check_rb(rb, g3)
        assert not report.passed

    def test_twist_commutation_required(self):
        osp = algebra_of("osp12", **{"lambda": 2})
        # swaps X and Y, does not commute with the diagonal twist
        rows = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        rb = RotaBaxterOperator(GradedLinearMap.from_matrix(osp.space, rows), F(0))
        report = check_rb(rb, osp)
        assert any(c.note == "twist commutation" for c in report.counterexamples)

    def test_odd_operator_rejected(self):
        g3 = algebra_of("g3_1_1", a=2)
        odd = GradedLinearMap(
            g3.space, 1, {"e0": Element({"e1": 1}), "e1": Element({"e0": 1})}
        )
        with pytest.raises(ValueError):
            RotaBaxterOperator(odd, F(0))

    @given(
        st.fractions(
            min_value=F(-6), max_value=F(6), max_denominator=5
        ).filter(lambda q: q != 0)
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_homogeneity(self, mu):
        """If R is Rota-Baxter of weight w then mu*R has weight mu*w."""
        g5 = algebra_of("g5_1_1", a=2)
        scaled_identity = RotaBaxterOperator(
            GradedLinearMap.identity(g5.space).scale(mu), mu * F(-1)
        )
        assert check_rb(scaled_identity, g5).passed
        halving = diag(g5.space, [F(1, 2), 1])
        scaled = RotaBaxterOperator(halving.scale(mu), mu * F(0))
        assert check_rb(scaled, g5).passed


def ternary_L1(a=1, b=3):
    bundle = catalog_build("L1", a=a, b=b)
    return cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)


class TestNary:
    def test_zero_operator(self):
        tern = ternary_L1()
        rb = RotaBaxterOperator(GradedLinearMap.zero(tern.space), F(0))
        assert check_rb(rb, tern).passed

    def test_transfer_from_binary(self):
        g5 = algebra_of("g5_1_1", a=2)
        rb = RotaBaxterOperator(diag(g5.space, [F(1, 2), 1]), F(0))
        assert check_rb(rb, g5).passed
        for n in (3, 4):
            assert check_rb(rb, iterated_bracket(g5, n)).passed

    def test_identity_weight_zero_fails_on_nonzero_ternary(self):
        tern = ternary_L1()
        rb = RotaBaxterOperator(GradedLinearMap.identity(tern.space), F(0))
        report = check_rb(rb, tern)
        assert not report.passed

    def test_projection_on_induced_ternary(self):
        bundle = catalog_build("L1", a=1, b=3)
        tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
        rb = RotaBaxterOperator(bundle.operators[0].map, F(0))
        assert check_rb(rb, tern).passed


def seven_term_reference(rb, alg, args):
    """The printed ternary expansion, written out term by term."""
    w = rb.weight
    space = alg.space
    r = [rb.map.apply_basis(a) for a in args]
    x = [space.basis_element(a) for a in args]
    total = (
        eval_bracket(alg, [r[0], r[1], x[2]])
        + eval_bracket(alg, [r[0], x[1], r[2]])
        + eval_bracket(alg, [x[0], r[1], r[2]])
        + eval_bracket(alg, [r[0], x[1], x[2]]).scale(w)
        + eval_bracket(alg, [x[0], r[1], x[2]]).scale(w)
        + eval_bracket(alg, [x[0], x[1], r[2]]).scale(w)
        + eval_bracket(alg, [x[0], x[1], x[2]]).scale(w * w)
    )
    return rb.map.apply(total)


def three_term_reference(rb, alg, args):
    """The printed binary identity's right side, R(R(x)y + xR(y) + weight xy)."""
    x, y = args
    rx, ry = rb.map.apply_basis(x), rb.map.apply_basis(y)
    ex, ey = alg.space.basis_element(x), alg.space.basis_element(y)
    return rb.map.apply(
        eval_bracket(alg, [rx, ey])
        + eval_bracket(alg, [ex, ry])
        + eval_bracket(alg, [ex, ey]).scale(rb.weight)
    )


def printed_form_report(rb, alg, cap):
    """The full report from the printed three-term (binary) or seven-term
    (ternary) form: twist commutation cells first, then every basis tuple."""
    R = rb.map
    space = alg.space
    cells = []
    for twist in dict.fromkeys(alg.twists):
        for label in space.labels:
            lhs, rhs = R.apply(twist.apply_basis(label)), twist.apply(R.apply_basis(label))
            cells.append(Counterexample((label,), lhs, rhs, "twist commutation"))
    reference = three_term_reference if alg.arity == 2 else seven_term_reference
    for args in space.tuples(alg.arity):
        lhs = eval_bracket(alg, [R.apply_basis(a) for a in args])
        cells.append(Counterexample(args, lhs, reference(rb, alg, args)))
    failing = [c for c in cells if c.lhs != c.rhs]
    name = "rota-baxter" if alg.arity == 2 else "rota-baxter-nary"
    return CheckReport(
        f"{name}(weight={rb.weight})", not failing, tuple(failing[:cap]), len(failing), len(cells)
    )


def random_rb_case(rng):
    """A random graded algebra of arity 2 or 3 with a random even operator.

    A third of the operators pass by construction: zero, or mu times the
    identity at weight -mu on a binary algebra.
    """
    space = random_inputs.space(rng)
    n = rng.choice((2, 2, 3))
    entries = random_inputs.graded_tensor(rng, space, n)
    if rng.random() < 0.3:
        twists = tuple(random_inputs.graded_map(rng, space) for _ in range(n - 1))
    else:
        twists = (random_inputs.graded_map(rng, space),) * (n - 1)
    alg = HomSuperAlgebra(space, NaryBracket(n, entries), twists)
    kind = rng.choice(("zero", "scalar", "random", "random"))
    weight = rng.choice((F(0),) + random_inputs.VALUES)
    if kind == "zero":
        R = GradedLinearMap.zero(space)
    elif kind == "scalar" and n == 2:
        mu = rng.choice(random_inputs.VALUES)
        R, weight = GradedLinearMap.identity(space).scale(mu), -mu
    else:
        R = random_inputs.graded_map(rng, space)
    return RotaBaxterOperator(R, weight), alg


def test_check_rb_matches_printed_forms():
    """check_rb's subset sum against the printed forms, at caps 0, 2 and unlimited."""
    rng = random.Random(7)
    cases, failing = 80, 0
    for _ in range(cases):
        rb, alg = random_rb_case(rng)
        full = printed_form_report(rb, alg, 10**6)
        for cap in (0, 2, 10**6):
            expected = random_inputs.capped(full, cap)
            assert check_rb(rb, alg, cap) == expected
        failing += not full.passed
    assert cases / 3 <= failing <= cases * 5 / 6


class TestSubsetSumExpansion:
    @pytest.mark.parametrize("weight", [F(0), F(1), F(-1), F(2)])
    def test_matches_seven_terms(self, weight):
        """Subset-sum right side equals the printed 7-term expansion for any
        even operator, Rota-Baxter or not, at each probed weight."""
        from homnambu.rotabaxter import _rb_tables

        tern = ternary_L1(a=2, b=3)
        arbitrary = diag(tern.space, [1, 2, 3])
        rb = RotaBaxterOperator(arbitrary, weight)
        _, right = _rb_tables(rb, tern)
        for args in tern.space.tuples(3):
            assert right.get(args, Element()) == seven_term_reference(rb, tern, args)

    def test_subset_count_for_arity_four(self):
        g5 = algebra_of("g5_1_1", a=2)
        four = iterated_bracket(g5, 4)
        rb = RotaBaxterOperator(GradedLinearMap.zero(four.space), F(3))
        assert check_rb(rb, four).passed  # exercises all 15 subsets


class TestInverseDerivationEquivalence:
    def test_g5_both_true(self):
        g5 = algebra_of("g5_1_1", a=2)
        report = check_inverse_derivation_equiv(diag(g5.space, [F(1, 2), 1]), g5)
        assert report.rb.passed and report.inverse_derivation.passed
        assert report.agree and report.passed

    def test_identity_on_nonzero_bracket_both_false(self):
        g3 = algebra_of("g3_1_1", a=2)
        report = check_inverse_derivation_equiv(GradedLinearMap.identity(g3.space), g3)
        assert not report.rb.passed
        assert not report.inverse_derivation.passed
        assert report.agree

    def test_abelian_any_commuting_invertible(self):
        g1 = algebra_of("g1_0_2", a=2)
        report = check_inverse_derivation_equiv(diag(g1.space, [3, F(-1, 2)]), g1)
        assert report.rb.passed and report.inverse_derivation.passed

    def test_ternary_algebra_route(self):
        tern = ternary_L1(a=1, b=3)
        report = check_inverse_derivation_equiv(diag(tern.space, [F(1, 3), 1, 1]), tern)
        assert report.rb.passed and report.inverse_derivation.passed

    def test_singular_rejected(self):
        g3 = algebra_of("g3_1_1", a=2)
        with pytest.raises(ValueError):
            check_inverse_derivation_equiv(diag(g3.space, [1, 0]), g3)


class TestKernelCondition:
    @pytest.mark.parametrize("which", ["zero", "identity", "projection"])
    def test_verdicts_agree_on_catalog_pair(self, which):
        bundle = catalog_build("L1", a=1, b=3)
        alg, phi = bundle.algebra, bundle.cochains[0]
        if which == "zero":
            R = GradedLinearMap.zero(alg.space)
            expect = True
        elif which == "identity":
            R = GradedLinearMap.identity(alg.space)
            expect = False
        else:
            R = bundle.operators[0].map
            expect = True
        report = check_phi_rb_kernel_condition(R, phi, alg, 3)
        assert report.kernel.passed is expect
        assert report.nary.passed is expect
        assert report.agree and report.passed

    def test_second_parameter_point(self):
        bundle = catalog_build("L1", a=2, b=5)
        alg, phi = bundle.algebra, bundle.cochains[0]
        report = check_phi_rb_kernel_condition(
            bundle.operators[0].map, phi, alg, 3
        )
        assert report.agree and report.kernel.passed
