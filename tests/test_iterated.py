from fractions import Fraction as F

import pytest

from homnambu.axioms import adjoint_map, check_multiplicative, check_nambu_identity
from homnambu.catalog import catalog_build, hom_lie_entries
from homnambu.core import Element, GradedLinearMap, map_power
from homnambu.derivations import DerivationCandidate, check_derivation, inner_derivation
from homnambu.iterated import (
    check_adjoint_expansion,
    iterated_bracket,
    iterated_generalized_tuple,
    iterated_transfer_derivation,
)
from iterated_oracle import iterated_eval


def algebra_of(name, **params):
    return catalog_build(name, **params).algebra


def diag(space, values):
    d = space.dim
    return GradedLinearMap.from_matrix(
        space, [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )


class TestGoldenValues:
    def test_g3_alternating(self):
        g3 = algebra_of("g3_1_1", a=2)
        for n in (3, 4, 5):
            nested = iterated_bracket(g3, n)
            args = ("e1",) + ("e0",) * (n - 1)
            assert nested.bracket.value(args) == Element({"e1": (-1) ** (n - 1)})

    def test_g4_recursion_values(self):
        # closed form at n = 3 only; higher arities follow the recursion,
        # which stacks twist powers: coefficient (-1)^(n-1) a^((n-1)(n-2)/2)
        a = F(3)
        g4 = algebra_of("g4_1_1", a=a)
        for n in (3, 4, 5):
            nested = iterated_bracket(g4, n)
            args = ("e1",) + ("e0",) * (n - 1)
            expected = (-1) ** (n - 1) * a ** ((n - 1) * (n - 2) // 2)
            assert nested.bracket.value(args) == Element({"e1": expected})
        assert iterated_bracket(g4, 3).bracket.value(("e1", "e0", "e0")) == Element(
            {"e1": a}
        )  # equals the published closed form -(-a)^(n-2) at n = 3

    def test_L2_ternary_values(self):
        L2 = algebra_of("L2", a=1, b=2, c=3)
        nested = iterated_bracket(L2, 3)
        assert nested.bracket.value(("e1", "e3", "e3")) == Element({"e1": 6})
        assert nested.bracket.value(("e2", "e3", "e3")) == Element({"e2": 6})

    def test_L2_higher_arities_pinned_to_recursion(self):
        b, c = F(2), F(3)
        L2 = algebra_of("L2", a=1, b=b, c=c)
        four = iterated_bracket(L2, 4)
        five = iterated_bracket(L2, 5)
        assert four.bracket.value(("e1", "e3", "e3", "e3")) == Element({"e2": b * b * c})
        assert four.bracket.value(("e2", "e3", "e3", "e3")) == Element({"e1": b * c * c})
        assert five.bracket.value(("e1",) + ("e3",) * 4) == Element({"e1": b * b * c * c})
        assert five.bracket.value(("e2",) + ("e3",) * 4) == Element({"e2": b * b * c * c})


class TestStructure:
    def test_twist_is_power_n_minus_one(self):
        g3 = algebra_of("g3_1_1", a=5)
        for n in (3, 4):
            nested = iterated_bracket(g3, n)
            assert all(t == map_power(g3.twist, n - 1) for t in nested.twists)

    def test_recursion_consistency(self):
        for name, params in (("g3_1_1", {"a": 2}), ("L2", {}), ("osp12", {"lambda": 2})):
            alg = algebra_of(name, **params)
            alpha = alg.twist
            for n in (3, 4):
                lower = iterated_bracket(alg, n - 1) if n > 3 else alg
                nested = iterated_bracket(alg, n)
                for args in alg.space.tuples(n):
                    head = lower.bracket.value(args[: n - 1])
                    from homnambu.core import eval_bracket

                    expected = eval_bracket(
                        alg, [head, map_power(alpha, n - 2).apply_basis(args[n - 1])]
                    )
                    assert nested.bracket.value(args) == expected

    def test_direct_eval_agrees_with_tensor(self):
        alg = algebra_of("L2", a=2, b=1, c=-3)
        for n in (3, 4):
            nested = iterated_bracket(alg, n)
            for args in alg.space.tuples(n):
                elems = [alg.space.basis_element(a) for a in args]
                assert iterated_eval(alg, elems, n) == nested.bracket.value(args)

    def test_abelian_stays_zero(self):
        g1 = algebra_of("g1_0_2", a=2)
        for n in (3, 4, 5):
            assert iterated_bracket(g1, n).bracket.is_zero()

    def test_arity_two_returns_input(self):
        g3 = algebra_of("g3_1_1", a=2)
        assert iterated_bracket(g3, 2) is g3

    def test_requires_multiplicative(self):
        from homnambu.core import HomSuperAlgebra

        g3 = algebra_of("g3_1_1", a=2)
        loose = HomSuperAlgebra(g3.space, g3.bracket, g3.twists, multiplicative_flag=False)
        with pytest.raises(ValueError):
            iterated_bracket(loose, 3)


class TestUniversalProperty:
    def test_nambu_and_multiplicative_for_all_hom_lie_entries(self):
        for entry in hom_lie_entries():
            alg = entry.build().algebra
            for n in (3, 4, 5):
                nested = iterated_bracket(alg, n)
                assert check_nambu_identity(nested).passed, (entry.name, n)
                assert check_multiplicative(nested).passed, (entry.name, n)


class TestAdjointExpansion:
    def test_binary_case_on_twisted_osp(self):
        osp = algebra_of("osp12", **{"lambda": 2})
        assert check_adjoint_expansion(osp, 2).passed

    def test_abelian_both_sides_zero(self):
        g1 = algebra_of("g1_0_2")
        assert check_adjoint_expansion(g1, 3).passed

    def test_exhaustive_on_hom_lie_bases(self):
        for name, params, n in (
            ("g3_1_1", {"a": 2}, 3),
            ("g3_1_1", {"a": 2}, 4),
            ("g5_1_1", {"a": F(1, 2)}, 3),
            ("osp12", {"lambda": 2}, 3),
        ):
            assert check_adjoint_expansion(algebra_of(name, **params), n).passed

    def test_single_instance_mode(self):
        g3 = algebra_of("g3_1_1", a=2)
        report = check_adjoint_expansion(g3, 3, x="e0", ys=("e1", "e0", "e0"))
        assert report.passed
        assert report.tuples_checked == 1

    def test_instance_of_the_wrong_length_raises(self):
        """ys of length n-1 would name no cell and compare nothing; the full-length instance fails."""
        L2 = algebra_of("L2")
        with pytest.raises(ValueError, match="needs 3 ys"):
            check_adjoint_expansion(L2, 3, x="e1", ys=("e3", "e3"))
        with pytest.raises(ValueError, match="needs 3 ys"):
            check_adjoint_expansion(L2, 3, x="e1", ys=("e3", "e3", "e3", "e3"))
        assert not check_adjoint_expansion(L2, 3, x="e1", ys=("e3", "e3", "e3")).passed

    def test_fails_without_twisted_jacobi(self):
        # the expansion is equivalent to the twisted Jacobi identity; it must
        # fail on the catalog entry that lacks it
        L2 = algebra_of("L2")
        report = check_adjoint_expansion(L2, 3)
        assert not report.passed


class TestTransfer:
    def test_zero_map(self):
        g3 = algebra_of("g3_1_1", a=2)
        cand = DerivationCandidate(GradedLinearMap.zero(g3.space), 0)
        assert iterated_transfer_derivation(cand, g3, 3).passed

    def test_g5_scaling_derivation(self):
        g5 = algebra_of("g5_1_1", a=2)
        cand = DerivationCandidate(diag(g5.space, [2, 1]), 0)
        assert iterated_transfer_derivation(cand, g5, 3).passed

    def test_g3_solved_derivation_all_arities(self):
        g3 = algebra_of("g3_1_1", a=2)
        for k in (0, 1):
            cand = DerivationCandidate(diag(g3.space, [0, 1]), k)
            assert check_derivation(cand, g3).passed
            for n in (3, 4):
                assert iterated_transfer_derivation(cand, g3, n).passed

    def test_scaling_invariance(self):
        g3 = algebra_of("g3_1_1", a=2)
        for mu in (F(1), F(-7, 3)):
            cand = DerivationCandidate(diag(g3.space, [0, mu]), 0)
            assert iterated_transfer_derivation(cand, g3, 3).passed

    def test_rejects_non_derivation(self):
        g3 = algebra_of("g3_1_1", a=2)
        with pytest.raises(ValueError):
            iterated_transfer_derivation(DerivationCandidate(g3.twists[0], 0), g3, 3)


class TestGeneralizedTupleTransfer:
    def test_zero_chain(self):
        g5 = algebra_of("g5_1_1", a=2)
        z = GradedLinearMap.zero(g5.space)
        assert iterated_generalized_tuple([z, z, z], g5, 0, 3).passed

    def test_repeated_derivation_chain(self):
        g5 = algebra_of("g5_1_1", a=2)
        d = diag(g5.space, [2, 1])
        assert iterated_generalized_tuple([d, d, d], g5, 0, 3).passed

    def test_genuine_quasi_chain(self):
        g5 = algebra_of("g5_1_1", a=2)
        # Id and diag(2,1) both have Leibniz sum 2*e0 on (e1,e1), so each is
        # absorbed by any map sending e0 to 2*e0
        chain = [diag(g5.space, [1, 1]), diag(g5.space, [2, 1]), diag(g5.space, [2, 7])]
        assert iterated_generalized_tuple(chain, g5, 0, 3).passed

    def test_rejects_broken_chain(self):
        g5 = algebra_of("g5_1_1", a=2)
        z = GradedLinearMap.zero(g5.space)
        with pytest.raises(ValueError):
            iterated_generalized_tuple([z, diag(g5.space, [1, 0]), z], g5, 0, 3)


def test_an_unknown_label_raises_the_same_error_at_every_adjoint_entry_point():
    """An unknown x label reaches ``GradedLinearMap.apply_basis`` through a twist power, and an element's label
    ``GradedLinearMap.apply`` through the twist; both raise as the space does."""
    alg = algebra_of("g3_1_1")
    calls = (
        lambda: check_adjoint_expansion(alg, 3, "zz", ("e0", "e1", "e1")),
        lambda: check_adjoint_expansion(alg, 3, "e0", ("e0", "zz", "e1")),
        lambda: adjoint_map(alg, ["zz"]),
        lambda: inner_derivation(alg, ["zz"], 1),
        lambda: inner_derivation(alg, [Element({"zz": 1})], 1),  # through GradedLinearMap.apply
    )
    for call in calls:
        with pytest.raises(KeyError) as raised:
            call()
        assert raised.value.args == ("unknown basis label 'zz'",)
