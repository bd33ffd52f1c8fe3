import json
from collections import defaultdict
from fractions import Fraction as F

import pytest

from homnambu import cli, prelie
from homnambu.algfile import strip_comments
from homnambu.axioms import check_nambu_identity, check_super_skew
from homnambu.catalog import catalog_build
from homnambu.cochains import cochain_induced_bracket
from homnambu.core import (
    Element,
    GradedLinearMap,
    NaryBracket,
    OrbitConflict,
    SuperSpace,
)
from homnambu.iterated import iterated_bracket
from homnambu.prelie import (
    TriProduct,
    check_3_pre_lie,
    check_derived_identities,
    check_first_pair_skew,
    compatibility_report,
    cyclic_supercommutator,
    image_product,
    rb_induced_product,
    rb_morphism_report,
    sub_adjacent,
)
from homnambu.rotabaxter import RotaBaxterOperator, check_rb


def diag(space, values, parity=0):
    d = space.dim
    rows = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return GradedLinearMap.from_matrix(space, rows, parity=parity)


def ternary_L1(a=1, b=3):
    bundle = catalog_build("L1", a=a, b=b)
    return bundle, cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)


def zero_product(space, twist=None):
    return TriProduct(space, NaryBracket(3, {}), twist or GradedLinearMap.identity(space))


def bracket_as_product(alg3):
    return TriProduct(alg3.space, alg3.bracket, alg3.twists[0])


class TestTriProduct:
    def test_pair_orbit_completion(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        prod = TriProduct.from_generators(
            space, {("a", "b", "a"): Element({"b": 1})}, GradedLinearMap.identity(space)
        )
        assert prod.value(("b", "a", "a")) == Element({"b": -1})

    def test_mapping_generators_read_as_elements(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        twist = GradedLinearMap.identity(space)
        from_elements = TriProduct.from_generators(space, {("a", "b", "a"): Element({"b": F(1, 2)})}, twist)
        from_mapping = TriProduct.from_generators(space, {("a", "b", "a"): {"b": "1/2"}}, twist)
        assert from_mapping.product == from_elements.product

    def test_conflicting_generators(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0)])
        with pytest.raises(OrbitConflict):
            TriProduct.from_generators(
                space,
                {("a", "b", "a"): Element({"a": 1}), ("b", "a", "a"): Element({"a": 1})},
                GradedLinearMap.identity(space),
            )

    def test_only_first_pair_completed(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        prod = TriProduct.from_generators(
            space, {("a", "b", "a"): Element({"b": 1})}, GradedLinearMap.identity(space)
        )
        # last-two-slot swaps are not filled in
        assert prod.value(("a", "a", "b")).is_zero()


class TestAxioms:
    def test_zero_product_passes(self):
        space = catalog_build("L1").algebra.space
        assert check_3_pre_lie(zero_product(space)).passed

    def test_nilpotent_skew_bracket_passes(self):
        _, tern = ternary_L1()
        assert check_3_pre_lie(bracket_as_product(tern)).passed

    def test_symmetrized_even_pair_fails_first_axiom(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0)])
        prod = TriProduct(
            space,
            NaryBracket(
                3,
                {("a", "b", "a"): Element({"a": 1}), ("b", "a", "a"): Element({"a": 1})},
            ),
            GradedLinearMap.identity(space),
        )
        report = check_first_pair_skew(prod)
        assert not report.passed

    def test_frozen_nesting_violation(self):
        # passes the first-pair axiom but breaks the five-argument ones
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        prod = TriProduct.from_generators(
            space,
            {
                ("a", "b", "a"): Element({"b": 1}),
                ("b", "b", "a"): Element({"a": 1}),
                ("b", "b", "b"): Element({"b": -1}),
            },
            GradedLinearMap.identity(space),
        )
        assert check_first_pair_skew(prod).passed
        report = check_3_pre_lie(prod)
        assert not report.passed
        assert ("b", "b", "b", "b", "a") in {c.args for c in report.counterexamples}


class TestCyclicSupercommutator:
    def test_zero(self):
        space = catalog_build("L1").algebra.space
        assert cyclic_supercommutator(zero_product(space)).bracket.is_zero()

    def test_fully_skew_product_triples(self):
        _, tern = ternary_L1(a=1, b=3)
        cyc = cyclic_supercommutator(bracket_as_product(tern))
        for args in tern.space.tuples(3):
            assert cyc.bracket.value(args) == tern.bracket.value(args).scale(3)

    def test_refuses_non_skew_first_pair(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0)])
        prod = TriProduct(
            space, NaryBracket(3, {("a", "a", "b"): Element({"a": 1})}),
            GradedLinearMap.identity(space),
        )
        with pytest.raises(ValueError):
            cyclic_supercommutator(prod)

    def test_first_axiom_makes_commutator_fully_skew(self):
        _, tern = ternary_L1(a=2, b=5)
        rb = RotaBaxterOperator(diag(tern.space, [F(1, 3), 1, 1]), F(0))
        prod = rb_induced_product(tern, rb)
        cyc = cyclic_supercommutator(prod)
        assert check_super_skew(cyc).passed


class TestSubAdjacent:
    def test_zero_product_gives_abelian(self):
        space = catalog_build("L1").algebra.space
        alg, report = sub_adjacent(zero_product(space))
        assert alg.bracket.is_zero()
        assert report.passed

    def test_catalog_instance(self):
        _, tern = ternary_L1(a=1, b=3)
        alg, report = sub_adjacent(bracket_as_product(tern))
        assert report.passed
        assert check_nambu_identity(alg).passed

    def test_refuses_unverified_product(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        prod = TriProduct.from_generators(
            space,
            {
                ("a", "b", "a"): Element({"b": 1}),
                ("b", "b", "a"): Element({"a": 1}),
                ("b", "b", "b"): Element({"b": -1}),
            },
            GradedLinearMap.identity(space),
        )
        with pytest.raises(ValueError):
            sub_adjacent(prod)


class TestDerivedIdentities:
    def test_zero_product(self):
        space = catalog_build("L1").algebra.space
        assert check_derived_identities(zero_product(space)).passed

    def test_every_verified_instance_passes(self):
        instances = []
        _, tern = ternary_L1(a=1, b=3)
        instances.append(bracket_as_product(tern))
        rb = RotaBaxterOperator(diag(tern.space, [F(1, 3), 1, 1]), F(0))
        instances.append(rb_induced_product(tern, rb))
        instances.append(zero_product(tern.space))
        for prod in instances:
            assert check_3_pre_lie(prod).passed
            assert check_derived_identities(prod).passed


class TestDerivedIdentitiesInformational:
    def test_runs_on_unverified_product(self):
        # outside the guaranteed scope: the report is informational only
        space = SuperSpace.from_pairs([("a", 0), ("b", 1)])
        prod = TriProduct.from_generators(
            space,
            {
                ("a", "b", "a"): Element({"b": 1}),
                ("b", "b", "a"): Element({"a": 1}),
                ("b", "b", "b"): Element({"b": -1}),
            },
            GradedLinearMap.identity(space),
        )
        assert not check_3_pre_lie(prod).passed
        report = check_derived_identities(prod)  # must not raise
        assert report.tuples_checked > 0


class TestRbInducedProduct:
    def test_zero_operator_gives_zero_product(self):
        _, tern = ternary_L1()
        rb = RotaBaxterOperator(GradedLinearMap.zero(tern.space), F(0))
        assert rb_induced_product(tern, rb).is_zero()

    def test_projection_gives_zero_product(self):
        bundle, tern = ternary_L1()
        rb = RotaBaxterOperator(bundle.operators[0].map, F(0))
        prod = rb_induced_product(tern, rb)
        assert prod.is_zero()
        assert check_3_pre_lie(prod).passed
        assert rb_morphism_report(prod, tern, rb).passed

    def test_invertible_operator_nontrivial_product(self):
        _, tern = ternary_L1(a=1, b=3)
        rb = RotaBaxterOperator(diag(tern.space, [F(1, 3), 1, 1]), F(0))
        prod = rb_induced_product(tern, rb)
        assert prod.value(("e2", "e3", "e3")) == Element({"e1": 3})
        assert check_3_pre_lie(prod).passed
        _, report = sub_adjacent(prod)
        assert report.passed
        assert rb_morphism_report(prod, tern, rb).passed

    def test_scaling_operator_scales_product_quadratically(self):
        _, tern = ternary_L1(a=1, b=3)
        base = diag(tern.space, [F(1, 3), 1, 1])
        mu = F(5, 2)
        rb1 = RotaBaxterOperator(base, F(0))
        rb2 = RotaBaxterOperator(base.scale(mu), F(0))
        p1 = rb_induced_product(tern, rb1)
        p2 = rb_induced_product(tern, rb2)
        for args in tern.space.tuples(3):
            assert p2.value(args) == p1.value(args).scale(mu * mu)

    def test_preconditions_enforced(self):
        _, tern = ternary_L1()
        not_rb = RotaBaxterOperator(GradedLinearMap.identity(tern.space), F(0))
        with pytest.raises(ValueError):
            rb_induced_product(tern, not_rb)
        L2_tern = iterated_bracket(catalog_build("L2").algebra, 3)
        zero = RotaBaxterOperator(GradedLinearMap.zero(L2_tern.space), F(0))
        with pytest.raises(ValueError):  # base is not a ternary Hom-Lie algebra
            rb_induced_product(L2_tern, zero)


class TestImageProduct:
    def test_abelian_any_invertible(self):
        g1 = catalog_build("g1_0_2").algebra
        abelian3 = iterated_bracket(g1, 3)
        rb = RotaBaxterOperator(diag(abelian3.space, [2, -3]), F(0))
        prod = image_product(abelian3, rb)
        assert prod.is_zero()
        assert compatibility_report(prod, abelian3).passed

    def test_g5_iterated_zero_bracket(self):
        g5 = catalog_build("g5_1_1", a=2).algebra
        tern = iterated_bracket(g5, 3)
        assert tern.bracket.is_zero()
        rb = RotaBaxterOperator(diag(tern.space, [F(1, 2), 1]), F(0))
        assert check_rb(rb, tern).passed
        prod = image_product(tern, rb)
        assert prod.is_zero()

    def test_nontrivial_compatibility(self):
        """The cyclic supercommutator of the compatible product reproduces the
        original nonzero ternary bracket entry by entry."""
        _, tern = ternary_L1(a=1, b=3)
        rb = RotaBaxterOperator(diag(tern.space, [F(1, 3), 1, 1]), F(0))
        prod = image_product(tern, rb)
        assert prod.value(("e2", "e3", "e3")) == Element({"e1": 1})
        report = compatibility_report(prod, tern)
        assert report.passed
        assert check_3_pre_lie(prod).passed

    def test_singular_rejected(self):
        _, tern = ternary_L1()
        rb = RotaBaxterOperator(diag(tern.space, [1, 1, 0]), F(0))
        with pytest.raises(ValueError):
            image_product(tern, rb)


class TestPrelieCommandRunsEachCheckOnce:
    """One ``prelie`` command runs each check and builds each construction once."""

    @staticmethod
    def _induced_l1_file(tmp_path, capsys, matrix):
        assert cli.main(["induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"]) == 0
        doc = json.loads(strip_comments(capsys.readouterr().out))
        if matrix is not None:
            doc["operators"][0]["matrix"] = matrix
        path = tmp_path / "tern.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "matrix, invertible",
        [(None, False), ([["1/3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], True)],
        ids=["projection", "diagonal"],
    )
    def test_run_counts(self, tmp_path, capsys, monkeypatch, matrix, invertible):
        path = self._induced_l1_file(tmp_path, capsys, matrix)
        calls = defaultdict(list)

        def count(owner, name, key=lambda args: None):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name].append(key(args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for module in (cli, prelie):
            for name in ("check_grading", "check_super_skew", "check_nambu_identity"):
                count(module, name, key=lambda args: args[0])
            for name in ("check_rb", "compatibility_report"):
                count(module, name)
        count(prelie, "_five_argument_reports")
        count(prelie, "_permute", key=lambda args: len(args[1]))  # 3-slot orders: the cyclic supercommutator
        count(prelie.TriProduct, "__init__")

        assert cli.main(["prelie", str(path)]) == 0
        assert capsys.readouterr().out.count("PASS") == 8 + invertible
        for name in ("check_grading", "check_super_skew", "check_nambu_identity"):
            # once on the base algebra and once on the sub-adjacent one
            assert len(calls[name]) == 2 and calls[name][0] is not calls[name][1]
        assert len(calls["check_rb"]) == 1
        assert len(calls["_five_argument_reports"]) == 2
        products = len(calls["__init__"])
        assert products == 1 + invertible
        assert calls["_permute"].count(3) == 3 * products
        assert len(calls["compatibility_report"]) == invertible
