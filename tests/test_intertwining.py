"""Differential tests: the intertwining identities against their tuple-loop oracles.

Multiplicativity, the Rota-Baxter morphism, the supercommutator
compatibility and the two operator-induced ternary products all evaluate
O∘T∘(M_1⊗..⊗M_n) through :func:`homnambu.axioms._compose`.  Each is compared
with the per-tuple loop in ``intertwining_oracle`` on seeded random graded
tensors with diagonal, shear, singular and random maps: reports at caps 0, 2
and unlimited, and product tensors entry for entry.
"""

import random
from fractions import Fraction as F

import pytest

from homnambu import prelie
from homnambu.axioms import check_multiplicative
from homnambu.catalog import catalog_build
from homnambu.cochains import cochain_induced_bracket
from homnambu.core import Element, GradedLinearMap, HomSuperAlgebra, NaryBracket
from homnambu.prelie import (
    TriProduct,
    compatibility_report,
    image_product,
    rb_induced_product,
    rb_morphism_report,
)
from homnambu.rotabaxter import RotaBaxterOperator
import intertwining_oracle as oracle
import random_inputs

CAPS = (0, 2, 10**6)
MAP_KINDS = ("identity", "zero", "diagonal", "shear", "singular", "random")


def shaped_map(rng, space, kind):
    """An even map of the given shape; "singular" has a zero diagonal entry."""
    labels = space.labels
    if kind == "identity":
        return GradedLinearMap.identity(space)
    if kind == "zero":
        return GradedLinearMap.zero(space)
    if kind == "random":
        return random_inputs.graded_map(rng, space)
    values = {l: rng.choice(random_inputs.VALUES) for l in labels}
    if kind == "singular":
        values[rng.choice(labels)] = 0
    cols = {l: {l: v} for l, v in values.items()}
    if kind == "shear":  # one off-diagonal entry between two labels of one parity
        pairs = [(a, b) for a in labels for b in labels if a != b and space.parity(a) == space.parity(b)]
        if pairs:
            a, b = rng.choice(pairs)
            cols[b][a] = rng.choice(random_inputs.VALUES)
    return GradedLinearMap(space, 0, {l: Element(c) for l, c in cols.items()})


def assert_same_reports(fast, slow, *args):
    """The fast report equals the oracle's at every cap."""
    full = slow(*args, 10**6)
    for cap in CAPS:
        expected = random_inputs.capped(full, cap)
        assert slow(*args, cap) == expected
        assert fast(*args, cap) == expected
    return full


def random_ternary(rng, space, twist):
    entries = random_inputs.graded_tensor(rng, space, 3)
    return HomSuperAlgebra(space, NaryBracket(3, entries), (twist, twist))


def test_multiplicative_matches_oracle():
    rng = random.Random(11)
    cases, failing = 120, 0
    for _ in range(cases):
        space = random_inputs.space(rng)
        n = rng.choice((2, 3, 4))
        twist = shaped_map(rng, space, rng.choice(MAP_KINDS))
        entries = random_inputs.graded_tensor(rng, space, n)
        alg = HomSuperAlgebra(space, NaryBracket(n, entries), (twist,) * (n - 1))
        report = assert_same_reports(check_multiplicative, oracle.check_multiplicative, alg)
        failing += not report.passed
    assert cases / 4 <= failing <= cases * 3 / 4


def test_multiplicative_rejects_distinct_twists():
    space = random_inputs.space(random.Random(3), max_dim=2)
    ident = GradedLinearMap.identity(space)
    alg = HomSuperAlgebra(space, NaryBracket(3, {}), (ident, ident.scale(2)))
    for check in (check_multiplicative, oracle.check_multiplicative):
        with pytest.raises(ValueError):
            check(alg)


def test_morphism_and_compatibility_match_oracle():
    """Half the brackets are the product's own cyclic supercommutator, so
    compatibility passes there, and the morphism too when R is the identity."""
    rng = random.Random(12)
    cases, failing = 120, 0
    for _ in range(cases):
        space = random_inputs.space(rng)
        twist = shaped_map(rng, space, rng.choice(("identity", "diagonal", "shear")))
        t = TriProduct(space, NaryBracket(3, random_inputs.graded_tensor(rng, space, 3)), twist)
        if rng.random() < 0.5:
            alg3 = HomSuperAlgebra(space, t.cyclic, (twist, twist))
        else:
            alg3 = random_ternary(rng, space, twist)
        rb = RotaBaxterOperator(shaped_map(rng, space, rng.choice(MAP_KINDS)), F(0))
        morphism = assert_same_reports(rb_morphism_report, oracle.rb_morphism_report, t, alg3, rb)
        compat = assert_same_reports(compatibility_report, oracle.compatibility_report, t, alg3)
        failing += (not morphism.passed) + (not compat.passed)
    assert cases / 2 <= failing <= cases * 3 / 2


def outcome(build, *args):
    """The built product, or the type and message of what the build raised."""
    try:
        return build(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def unchecked_preconditions(monkeypatch):
    """Let the builders run on random tensors: the Hom-Lie and Rota-Baxter
    preconditions pass, in the library and in the oracle alike."""
    passing = type("Passing", (), {"passed": True})()
    for module in (prelie, oracle):
        for check in ("check_grading", "check_super_skew", "check_nambu_identity", "check_rb"):
            monkeypatch.setattr(module, check, lambda *args: passing)


def test_product_builders_match_oracle(unchecked_preconditions):
    rng = random.Random(13)
    cases, raised = 120, 0
    for _ in range(cases):
        space = random_inputs.space(rng)
        twist = shaped_map(rng, space, rng.choice(("identity", "diagonal", "shear")))
        alg3 = random_ternary(rng, space, twist)
        rb = RotaBaxterOperator(shaped_map(rng, space, rng.choice(MAP_KINDS)), F(0))
        for fast, slow in ((rb_induced_product, oracle.rb_induced_product),
                           (image_product, oracle.image_product)):
            got, want = outcome(fast, alg3, rb), outcome(slow, alg3, rb)
            if isinstance(want, TriProduct):
                assert isinstance(got, TriProduct)
                assert (got.product, got.twist) == (want.product, want.twist)
            else:
                assert got == want
                raised += 1
    assert cases / 4 <= raised <= cases


@pytest.mark.parametrize("kind", ["zero", "diagonal", "projection"])
@pytest.mark.parametrize("params", [{"a": 1, "b": 3}, {"a": 2, "b": 5}])
def test_product_builders_on_induced_ternary(kind, params):
    """The verified construction, preconditions included, on the L1 ternary."""
    bundle = catalog_build("L1", **params)
    tern = cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
    R = {
        "zero": GradedLinearMap.zero(tern.space),
        "diagonal": GradedLinearMap.from_matrix(tern.space, [[F(1, 3), 0, 0], [0, 1, 0], [0, 0, 1]]),
        "projection": bundle.operators[0].map,
    }[kind]
    rb = RotaBaxterOperator(R, F(0))
    for fast, slow in ((rb_induced_product, oracle.rb_induced_product),
                       (image_product, oracle.image_product)):
        got, want = outcome(fast, tern, rb), outcome(slow, tern, rb)
        if isinstance(want, TriProduct):
            assert (got.product, got.twist) == (want.product, want.twist)
            assert rb_morphism_report(got, tern, rb) == oracle.rb_morphism_report(want, tern, rb)
        else:
            assert got == want
