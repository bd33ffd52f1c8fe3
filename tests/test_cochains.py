from fractions import Fraction as F

import pytest

from homnambu.axioms import (
    check_multiplicative,
    check_nambu_identity,
    check_super_skew,
)
from homnambu import cochains
from homnambu.catalog import catalog_build
from homnambu.cochains import (
    SuperCochain,
    check_induction_conditions,
    coboundary,
    cochain_induced_bracket,
    derivation_transfer,
    is_supertrace,
    triple_product,
    wedge_obstruction,
)
from homnambu.core import (
    Element,
    GradedLinearMap,
    NaryBracket,
    OrbitConflict,
    SuperSpace,
    multiplicative_algebra,
    pair_extraction_sign,
)
from homnambu.derivations import DerivationCandidate, check_derivation, solve_derivation_space
from homnambu.iterated import iterated_bracket
from homnambu.rotabaxter import check_phi_rb_kernel_condition


def L1(a=1, b=3):
    bundle = catalog_build("L1", a=a, b=b)
    return bundle.algebra, bundle.cochains[0]


class TestSuperCochain:
    def test_evenness_enforced(self):
        space = SuperSpace.from_pairs([("x", 0), ("y", 1)])
        with pytest.raises(ValueError):
            SuperCochain(space, 1, {("y",): 1})
        SuperCochain(space, 1, {("y",): 0})  # explicit zero is fine

    def test_orbit_completion_on_load(self):
        space = SuperSpace.from_pairs([("x", 0), ("y", 0)])
        c = SuperCochain(space, 2, {("x", "y"): F(2)})
        assert c.value(("y", "x")) == F(-2)

    def test_conflicting_generators(self):
        space = SuperSpace.from_pairs([("x", 0), ("y", 0)])
        with pytest.raises(OrbitConflict):
            SuperCochain(space, 2, {("x", "y"): 1, ("y", "x"): 1})

    def test_verbatim_table_must_be_closed_under_its_orbits(self):
        space = SuperSpace.from_pairs([("x", 0), ("y", 0), ("u", 1), ("v", 1)])
        full = {("x", "y"): 2, ("y", "x"): -2, ("u", "v"): 3, ("v", "u"): 3}
        assert SuperCochain(space, 2, full, complete=False).values == SuperCochain(space, 2, full).values
        missing = dict(full)
        del missing[("v", "u")]
        wrong_sign = dict(full)
        wrong_sign[("y", "x")] = 2
        for table in (missing, wrong_sign):
            with pytest.raises(ValueError):
                SuperCochain(space, 2, table, complete=False)

    def test_multilinear_eval(self):
        space = SuperSpace.from_pairs([("x", 0), ("y", 0)])
        c = SuperCochain(space, 1, {("x",): 2, ("y",): 5})
        assert c.eval([Element({"x": F(1, 2), "y": 1})]) == F(6)


class TestCoboundary:
    def test_degree_one_is_bracket_pullback(self):
        alg, phi = L1()
        delta = coboundary(phi, alg)
        assert delta.degree == 2
        for pair in alg.space.tuples(2):
            assert delta.value(pair) == phi.eval([alg.bracket.value(pair)])

    def test_zero_cochain(self):
        alg, _ = L1()
        zero = SuperCochain(alg.space, 1, {})
        assert coboundary(zero, alg).is_zero()

    def test_nonzero_coboundary_is_even_and_skew(self):
        # [e1,e1] = e0 makes the coboundary of the e0-dual form visible
        g5 = catalog_build("g5_1_1", a=2).algebra
        phi = SuperCochain(g5.space, 1, {("e0",): 1})
        delta = coboundary(phi, g5)  # construction validates skewness
        assert delta.value(("e1", "e1")) == 1
        for args, v in delta.values.items():
            assert sum(g5.space.parity(a) for a in args) % 2 == 0

    def test_guard_rejects_an_odd_or_non_skew_table(self, monkeypatch):
        """The coboundary of an even cochain over a bracket that is not even, or a pair sum that loses skew
        symmetry, is no even super-skew cochain: ValueError, never a cochain that breaks its own invariants."""
        space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
        odd = NaryBracket(2, {("e0", "e1"): {"e0": 1}, ("e1", "e0"): {"e0": -1}})  # [e0, e1] = e0 is odd
        alg = multiplicative_algebra(space, odd, GradedLinearMap.identity(space))
        phi = SuperCochain(space, 1, {("e0",): 1})
        with pytest.raises(ValueError):
            coboundary(phi, alg)
        alg, phi = L1()
        monkeypatch.setattr(cochains, "_pair_sum", lambda *args: (1, {("e1", "e2"): {0: 1}}))
        with pytest.raises(ValueError):
            coboundary(phi, alg)

    def test_degree_two_output_is_skew(self):
        alg, _ = L1(a=2, b=3)
        phi2 = SuperCochain(alg.space, 2, {("e1", "e2"): 1, ("e3", "e3"): F(1, 2)})
        delta = coboundary(phi2, alg)  # constructor asserts skew symmetry
        assert delta.degree == 3


class TestWedgeObstruction:
    def test_vanishes_on_catalog_pair(self):
        alg, phi = L1(a=2, b=5)
        for ys in alg.space.tuples(3):
            assert wedge_obstruction(phi, (), ys, alg) == 0

    def test_zero_cochain(self):
        alg, _ = L1()
        zero = SuperCochain(alg.space, 1, {})
        assert wedge_obstruction(zero, (), ("e2", "e3", "e3"), alg) == 0

    def test_abelian_bracket(self):
        g1 = catalog_build("g1_0_2").algebra
        phi = SuperCochain(g1.space, 1, {})
        assert wedge_obstruction(phi, (), ("e1", "e2", "e2"), g1) == 0

    def test_shape_mismatch(self):
        alg, phi = L1()
        with pytest.raises(ValueError):
            wedge_obstruction(phi, ("e1",), ("e1", "e2", "e3"), alg)

    def test_unknown_label_raises(self):
        alg, phi = L1()
        with pytest.raises(KeyError, match="zz"):
            wedge_obstruction(phi, (), ("zz", "e1", "e2"), alg)
        with pytest.raises(KeyError, match="zz"):
            wedge_obstruction(phi, (), ("e1", "e2", "zz"), alg)
        phi2 = SuperCochain(alg.space, 2, {("e1", "e2"): 1})
        with pytest.raises(KeyError, match="zz"):
            wedge_obstruction(phi2, ("zz",), ("e1", "e2", "e3", "e3"), alg)


class TestInductionConditions:
    def test_catalog_pair_passes(self):
        for a, b in ((1, 3), (2, 5), (3, F(1, 2))):
            alg, phi = L1(a=a, b=b)
            assert check_induction_conditions(phi, alg).passed

    def test_zero_cochain_passes(self):
        alg, _ = L1()
        zero = SuperCochain(alg.space, 1, {})
        assert check_induction_conditions(zero, alg).passed

    def test_g3_dual_form_passes(self):
        g3 = catalog_build("g3_1_1", a=3).algebra
        phi = SuperCochain(g3.space, 1, {("e0",): 1})
        assert check_induction_conditions(phi, g3).passed

    def test_perturbed_form_fails_wedge(self):
        alg, _ = L1(a=1, b=3)
        bad = SuperCochain(alg.space, 1, {("e1",): 1, ("e2",): 3})
        report = check_induction_conditions(bad, alg)
        assert not report.wedge.passed
        assert report.twist.passed  # the twist fixes e1 at a = 1


class TestTripleProduct:
    def test_golden_value(self):
        for b in (3, 5):
            alg, phi = L1(a=1, b=b)
            tern = triple_product(phi, alg)
            assert tern.bracket.value(("e2", "e3", "e3")) == Element({"e1": b})

    def test_zero_cochain_gives_zero_bracket(self):
        alg, _ = L1()
        zero = SuperCochain(alg.space, 1, {})
        assert triple_product(zero, alg).bracket.is_zero()

    def test_repeated_even_argument_vanishes(self):
        alg, phi = L1(a=2, b=3)
        tern = triple_product(phi, alg)
        for z in alg.space.labels:
            assert tern.bracket.value(("e1", "e1", z)).is_zero()
            assert tern.bracket.value(("e2", "e2", z)).is_zero()

    def test_needs_degree_one(self):
        alg, _ = L1()
        phi2 = SuperCochain(alg.space, 2, {})
        with pytest.raises(ValueError):
            triple_product(phi2, alg)


def hand_pair_sum(phi, alg, args):
    """Independent term-by-term expansion over the (i, j) slot pairs."""
    n = len(args)
    parities = [alg.space.parity(a) for a in args]
    total = Element()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            weight = phi.value(
                tuple(args[m - 1] for m in range(1, n + 1) if m not in (i, j))
            )
            if weight == 0:
                continue
            sign = pair_extraction_sign(parities, i, j) * (-1) ** (i + j + 1)
            inner = alg.bracket.value((args[i - 1], args[j - 1]))
            total = total + inner.scale(sign * weight)
    return total


class TestInducedBracket:
    def test_ternary_matches_triple_product(self):
        alg, phi = L1(a=2, b=5)
        a1 = triple_product(phi, alg)
        a2 = cochain_induced_bracket(phi, alg, 3)
        assert a1.bracket == a2.bracket
        assert a1.twists == a2.twists

    def test_arity_four_zero_cochain(self):
        alg, _ = L1()
        zero = SuperCochain(alg.space, 2, {})
        assert cochain_induced_bracket(zero, alg, 4).bracket.is_zero()

    def test_arity_four_against_pair_sum_oracle(self):
        """The odd pair (e3, e3) makes the Koszul extraction sign nontrivial."""
        alg, _ = L1(a=1, b=3)
        for values in ({("e1", "e2"): 1}, {("e1", "e2"): 1, ("e3", "e3"): 2}):
            phi2 = SuperCochain(alg.space, 2, values)
            four = cochain_induced_bracket(phi2, alg, 4)
            for args in alg.space.tuples(4):
                assert four.bracket.value(args) == hand_pair_sum(phi2, alg, args)

    def test_degree_mismatch(self):
        alg, phi = L1()
        with pytest.raises(ValueError):
            cochain_induced_bracket(phi, alg, 4)

    def test_always_super_skew_even_when_conditions_fail(self):
        alg, _ = L1(a=1, b=3)
        bad = SuperCochain(alg.space, 1, {("e1",): 1, ("e2",): 3})
        assert not check_induction_conditions(bad, alg).passed
        tern = cochain_induced_bracket(bad, alg, 3)
        assert check_super_skew(tern).passed


class TestInductionRoundTrip:
    def test_forward(self):
        for a, b in ((1, 3), (2, 5)):
            alg, phi = L1(a=a, b=b)
            assert check_induction_conditions(phi, alg).passed
            tern = cochain_induced_bracket(phi, alg, 3)
            assert check_super_skew(tern).passed
            assert check_nambu_identity(tern).passed
            assert check_multiplicative(tern).passed

    def test_reverse_on_hom_lie_base(self):
        """On a twisted-Jacobi-verified base, a violated wedge condition makes
        the induced ternary fail the fundamental identity: both directions of
        the equivalence are exercised."""
        for a in (1, -1):
            g5 = catalog_build("g5_1_1", a=a).algebra
            phi = SuperCochain(g5.space, 1, {("e0",): 1})
            report = check_induction_conditions(phi, g5)
            assert not report.wedge.passed
            assert report.twist.passed
            tern = cochain_induced_bracket(phi, g5, 3)
            assert check_super_skew(tern).passed
            assert not check_nambu_identity(tern).passed

    def test_reverse_on_catalog_pair(self):
        alg, _ = L1(a=1, b=3)
        bad = SuperCochain(alg.space, 1, {("e1",): 1, ("e2",): 3})
        conditions = check_induction_conditions(bad, alg)
        tern = cochain_induced_bracket(bad, alg, 3)
        assert (not conditions.passed) or (not check_nambu_identity(tern).passed)
        # both actually fail here
        assert not conditions.passed
        assert not check_nambu_identity(tern).passed


class TestSupertrace:
    def test_zero(self):
        alg, _ = L1()
        assert is_supertrace(SuperCochain(alg.space, 1, {}), alg)

    def test_catalog_form(self):
        alg, phi = L1(a=2, b=7)
        assert is_supertrace(phi, alg)

    def test_g3_dual_form(self):
        g3 = catalog_build("g3_1_1", a=2).algebra
        phi = SuperCochain(g3.space, 1, {("e0",): 1})
        assert is_supertrace(phi, g3)

    def test_non_supertrace(self):
        g5 = catalog_build("g5_1_1", a=1).algebra
        phi = SuperCochain(g5.space, 1, {("e0",): 1})  # [e1,e1] = e0 is seen
        assert not is_supertrace(phi, g5)

    def test_supertrace_implies_induction_conditions(self):
        cases = []
        alg, phi = L1(a=2, b=7)
        cases.append((phi, alg))
        g3 = catalog_build("g3_1_1", a=2).algebra
        cases.append((SuperCochain(g3.space, 1, {("e0",): 1}), g3))
        cases.append((SuperCochain(alg.space, 1, {}), alg))
        for phi, alg in cases:
            if is_supertrace(phi, alg):
                assert check_induction_conditions(phi, alg).passed


class TestDerivationTransfer:
    def test_zero_derivation(self):
        alg, phi = L1(a=2, b=3)
        d = DerivationCandidate(GradedLinearMap.zero(alg.space), 0)
        report = derivation_transfer(d, phi, alg, 3)
        assert report.status == "transferred"

    def test_scaling_derivation_transfers(self):
        alg, phi = L1(a=1, b=3)
        d = DerivationCandidate(
            GradedLinearMap.from_matrix(alg.space, [[2, 0, 0], [0, 0, 0], [0, 0, 1]]),
            0,
        )
        assert check_derivation(d, alg).passed
        report = derivation_transfer(d, phi, alg, 3)
        assert report.status == "transferred"
        assert report.conclusion.passed

    def test_hypothesis_failure_makes_no_claim(self):
        g5 = catalog_build("g5_1_1", a=2).algebra
        phi = SuperCochain(g5.space, 1, {("e0",): 1})
        d = DerivationCandidate(
            GradedLinearMap.from_matrix(g5.space, [[2, 0], [0, 1]]), 0
        )
        assert check_derivation(d, g5).passed
        report = derivation_transfer(d, phi, g5, 3)
        assert report.status == "hypothesis-failed"
        assert report.conclusion is None
        assert not report.passed

    def test_non_binary_base_rejected_before_the_hypothesis(self):
        """The base's arity was checked only after the phi-annihilation hypothesis
        passed, so this input got a hypothesis-failed report."""
        alg3 = iterated_bracket(catalog_build("g5_1_1").algebra, 3)
        phi = SuperCochain(alg3.space, 1, {("e0",): 1})
        d = DerivationCandidate(solve_derivation_space(alg3, 0, 0)[0], 0)
        with pytest.raises(ValueError, match="^induced brackets start from a binary algebra$"):
            derivation_transfer(d, phi, alg3, 3)

    @pytest.mark.parametrize("n", [4, 7])
    def test_arity_off_the_degree_rejected_before_the_hypothesis(self, n):
        g5 = catalog_build("g5_1_1").algebra
        phi = SuperCochain(g5.space, 1, {("e0",): 1})
        d = DerivationCandidate(solve_derivation_space(g5, 0, 0)[0], 0)
        with pytest.raises(ValueError, match=f"^arity {n} needs a degree-{n - 2} cochain, got 1$"):
            derivation_transfer(d, phi, g5, n)

    def test_non_derivation_rejected(self):
        alg, phi = L1(a=1, b=3)
        not_deriv = DerivationCandidate(
            GradedLinearMap.from_matrix(alg.space, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            0,
        )
        with pytest.raises(ValueError):
            derivation_transfer(not_deriv, phi, alg, 3)


ENTRY_POINTS = {
    "coboundary": lambda phi, alg: coboundary(phi, alg),
    "wedge_obstruction": lambda phi, alg: wedge_obstruction(phi, (), ("e1", "e2", "e3"), alg),
    "check_induction_conditions": lambda phi, alg: check_induction_conditions(phi, alg),
    "cochain_induced_bracket": lambda phi, alg: cochain_induced_bracket(phi, alg, 3),
    "is_supertrace": lambda phi, alg: is_supertrace(phi, alg),
    "derivation_transfer": lambda phi, alg: derivation_transfer(
        DerivationCandidate(GradedLinearMap.zero(alg.space), 0), phi, alg, 3
    ),
    "check_phi_rb_kernel_condition": lambda phi, alg: check_phi_rb_kernel_condition(
        GradedLinearMap.identity(alg.space), phi, alg, 3
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_cochain_on_another_space_is_rejected(entry):
    """L1's labels with every parity flipped: e3 is even there, so phi(e3) = 1 is a valid cochain."""
    alg, _ = L1()
    flipped = SuperSpace(alg.space.labels, tuple(1 - p for p in alg.space.parities))
    phi = SuperCochain(flipped, 1, {("e3",): 1})
    with pytest.raises(ValueError, match="cochain on a different space"):
        ENTRY_POINTS[entry](phi, alg)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_binary_base_is_rejected(entry):
    """L1's bracket nested to arity 3, with a cochain on its space: every entry point needs a binary base."""
    alg, _ = L1()
    nested = iterated_bracket(alg, 3)
    with pytest.raises(ValueError, match="binary algebra$"):
        ENTRY_POINTS[entry](SuperCochain(nested.space, 1, {("e1",): 1}), nested)
