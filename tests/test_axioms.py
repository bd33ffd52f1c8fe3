from fractions import Fraction as F

import pytest

from homnambu.axioms import (
    adjoint_map,
    check_grading,
    check_hom_jacobi,
    check_multiplicative,
    check_nambu_identity,
    check_super_skew,
)
from homnambu.catalog import catalog_build, catalog_list
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    SuperSpace,
    multiplicative_algebra,
)
from homnambu.iterated import iterated_bracket
from nambu_oracle import nambu_oracle


def algebra_of(name, **params):
    return catalog_build(name, **params).algebra


def with_identity_twist(alg):
    ident = GradedLinearMap.identity(alg.space)
    return HomSuperAlgebra(
        alg.space, alg.bracket, (ident,) * (alg.arity - 1), multiplicative_flag=True
    )


class TestGrading:
    def test_catalog_passes(self):
        for entry in catalog_list():
            assert check_grading(entry.build().algebra).passed

    def test_violating_entry_detected(self):
        space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
        bad = NaryBracket(2, {("e0", "e0"): Element({"e1": 1})})
        alg = multiplicative_algebra(space, bad, GradedLinearMap.identity(space))
        report = check_grading(alg)
        assert not report.passed
        assert report.counterexamples[0].args == ("e0", "e0")

    def test_empty_bracket(self):
        alg = algebra_of("g1_0_2")
        assert check_grading(alg).passed


class TestSuperSkew:
    def test_g5_passes(self):
        assert check_super_skew(algebra_of("g5_1_1", a=2)).passed

    def test_zero_bracket(self):
        assert check_super_skew(algebra_of("g2_1_1")).passed

    def test_symmetric_even_pair_fails(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0), ("v", 0)])
        bracket = NaryBracket(
            2, {("a", "b"): Element({"v": 1}), ("b", "a"): Element({"v": 1})}
        )
        alg = multiplicative_algebra(space, bracket, GradedLinearMap.identity(space))
        report = check_super_skew(alg)
        assert not report.passed
        assert report.counterexamples[0].args == ("a", "b")

    def test_passes_on_every_orbit_completion(self):
        for entry in catalog_list():
            assert check_super_skew(entry.build().algebra).passed


class TestHomJacobi:
    def test_osp_twisted_passes(self):
        assert check_hom_jacobi(algebra_of("osp12", **{"lambda": 2})).passed

    def test_osp_identity_twist_fails(self):
        alg = with_identity_twist(algebra_of("osp12", **{"lambda": 2}))
        report = check_hom_jacobi(alg)
        assert not report.passed
        assert report.failures >= 1

    def test_abelian_passes(self):
        assert check_hom_jacobi(algebra_of("g1_0_2")).passed

    def test_requires_binary(self):
        tern = iterated_bracket(algebra_of("g3_1_1", a=2), 3)
        with pytest.raises(ValueError):
            check_hom_jacobi(tern)

    def test_all_even_matches_ungraded_identity(self):
        """With every parity forced to 0 the checker agrees with the plain
        cyclic identity computed independently."""
        alg = algebra_of("g3_1_1", a=2)
        space = SuperSpace.from_pairs([(l, 0) for l in alg.space.labels])
        stripped = HomSuperAlgebra(
            space,
            alg.bracket,
            (GradedLinearMap.from_matrix(space, alg.twists[0].matrix()),),
            multiplicative_flag=True,
        )
        report = check_hom_jacobi(stripped)
        alpha = stripped.twists[0]
        for x, y, z in space.tuples(3):
            total = Element()
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                inner = stripped.bracket.value((b, c))
                total = total + _eval2(stripped, alpha.apply_basis(a), inner)
            witnesses = {c.args for c in report.counterexamples}
            assert ((x, y, z) in witnesses) == (not total.is_zero())


def _eval2(alg, u, v):
    from homnambu.core import eval_bracket

    return eval_bracket(alg, [u, v])


class TestMultiplicative:
    def test_g3_passes(self):
        assert check_multiplicative(algebra_of("g3_1_1", a=5)).passed

    def test_wrong_twist_fails(self):
        alg = algebra_of("g3_1_1", a=2)
        wrong = GradedLinearMap.from_matrix(alg.space, [[2, 0], [0, 1]])
        candidate = HomSuperAlgebra(
            alg.space, alg.bracket, (wrong,), multiplicative_flag=True
        )
        report = check_multiplicative(candidate)
        assert not report.passed
        assert ("e0", "e1") in {c.args for c in report.counterexamples}

    def test_identity_twist_always_passes(self):
        for name in ("g3_1_1", "g5_1_1", "L1", "L2"):
            alg = with_identity_twist(algebra_of(name))
            assert check_multiplicative(alg).passed


class TestNambu:
    def test_matches_hom_jacobi_for_binary(self):
        """For super-skew binary algebras the fundamental identity and the
        cyclic identity pass or fail together."""
        cases = [
            algebra_of("g3_1_1", a=2),
            algebra_of("g5_1_1", a=F(1, 2)),
            algebra_of("osp12", **{"lambda": 2}),
            algebra_of("L1"),
            algebra_of("L2"),
            with_identity_twist(algebra_of("osp12", **{"lambda": 2})),
        ]
        for alg in cases:
            assert check_nambu_identity(alg).passed == check_hom_jacobi(alg).passed

    def test_zero_bracket_any_twists(self):
        alg = algebra_of("g1_0_2", a=3)
        assert check_nambu_identity(alg).passed

    def test_distinct_twist_families_supported(self):
        alg = algebra_of("g1_0_2")
        t1 = GradedLinearMap.from_matrix(alg.space, [[2, 0], [0, 3]])
        tern = HomSuperAlgebra(
            alg.space, NaryBracket(3, {}), (t1, GradedLinearMap.identity(alg.space))
        )
        assert check_nambu_identity(tern).passed

    def test_phi_induced_ternary_passes(self):
        from homnambu.cochains import cochain_induced_bracket

        bundle = catalog_build("L1", a=2, b=3)
        tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
        assert check_nambu_identity(tern).passed

    def test_iterated_osp_passes(self):
        alg = algebra_of("osp12", **{"lambda": 2})
        assert check_nambu_identity(iterated_bracket(alg, 3)).passed

    def test_sparse_and_exhaustive_agree(self):
        """The support-driven kernel against the exhaustive oracle."""
        cases = [
            iterated_bracket(algebra_of("osp12", **{"lambda": 2}), 3),
            iterated_bracket(algebra_of("L2"), 3),  # failing case
            iterated_bracket(algebra_of("g4_1_1", a=3), 4),
            algebra_of("L1"),
        ]
        for alg in cases:
            assert check_nambu_identity(alg, 16) == nambu_oracle(alg, 16)

    def test_non_diagonal_twists_agree_across_routes(self):
        """A shear twist (two-term columns) joins through several preimages
        per label; the kernel must still match the brute-force sweep."""
        from homnambu.cochains import cochain_induced_bracket

        bundle = catalog_build("L1", a=1, b=3)
        tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
        shear = GradedLinearMap.from_matrix(
            tern.space, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        )
        candidate = HomSuperAlgebra(
            tern.space, tern.bracket, (shear, shear), multiplicative_flag=True
        )
        assert check_nambu_identity(candidate, 16) == nambu_oracle(candidate, 16)

    def test_reports_are_deterministic(self):
        alg = iterated_bracket(algebra_of("L2"), 3)
        assert check_nambu_identity(alg) == check_nambu_identity(alg)


class TestCounterexampleCap:
    def test_cap_limits_list_but_counts_all(self):
        alg = with_identity_twist(algebra_of("osp12", **{"lambda": 2}))
        capped = check_hom_jacobi(alg, cap=3)
        full = check_hom_jacobi(alg, cap=10_000)
        assert len(capped.counterexamples) == 3
        assert capped.failures == full.failures > 3
        assert capped.counterexamples == full.counterexamples[:3]


class TestAdjointMap:
    def test_g3_adjoint_of_even_generator(self):
        alg = algebra_of("g3_1_1", a=2)
        ad = adjoint_map(alg, ["e0"])
        assert ad.apply_basis("e1") == Element({"e1": 1})
        assert ad.apply_basis("e0").is_zero()
        assert ad.parity == 0

    def test_zero_argument_gives_zero_map(self):
        alg = algebra_of("g3_1_1", a=2)
        ad = adjoint_map(alg, [Element()])
        assert ad.is_zero()

    def test_osp_weights(self):
        alg = algebra_of("osp12", **{"lambda": 1})
        ad = adjoint_map(alg, ["H"])
        expect = {"X": 2, "Y": -2, "H": 0, "F": -1, "G": 1}
        for label, weight in expect.items():
            assert ad.apply_basis(label) == Element({label: weight})

    def test_rejects_mixed_parity(self):
        alg = algebra_of("g3_1_1", a=2)
        with pytest.raises(ValueError):
            adjoint_map(alg, [Element({"e0": 1, "e1": 1})])
