"""Ternary pre-Lie products: axioms, cyclic supercommutator, induced structures.

A ternary pre-Lie product is super-skew in its first two arguments only; its
cyclic supercommutator

    [x, y, z]_C = {x,y,z} + (-1)^(|x|(|y|+|z|)) {y,z,x} + (-1)^(|z|(|x|+|y|)) {z,x,y}

is fully super-skew and satisfies the ternary fundamental identity whenever
the product satisfies the two five-argument compatibility axioms.  A weight-0
Rota-Baxter operator R on a ternary bracket induces such a product via
{x, y, z} = [R(x), R(y), z]; an invertible one induces a compatible product
R([x, y, R^{-1}(z)]) whose supercommutator recovers the original bracket.
"""

from __future__ import annotations

from .axioms import (
    CheckReport,
    _Collector,
    DEFAULT_COUNTEREXAMPLE_CAP,
    check_grading,
    check_nambu_identity,
    check_super_skew,
    merge_reports,
)
from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    SuperSpace,
    complete_skew_orbit,
    eval_tensor,
    multiplicative_algebra,
)
from .linalg import invert_map
from .rotabaxter import RotaBaxterOperator, check_rb_nary


class TriProduct:
    """Ternary product with a twist, super-skew in the first two slots only."""

    __slots__ = ("space", "product", "twist")

    def __init__(self, space: SuperSpace, product: NaryBracket, twist: GradedLinearMap):
        if product.arity != 3:
            raise ValueError("product must be ternary")
        if twist.parity != 0:
            raise ValueError("twist must be even")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "twist", twist)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TriProduct is immutable")

    @classmethod
    def from_generators(cls, space, generators, twist) -> "TriProduct":
        """Complete only the first-pair transposition orbit of the generators."""
        table = complete_skew_orbit(3, generators, space, swaps=(1,))
        return cls(space, NaryBracket(3, table), twist)

    def eval(self, args: list[Element]) -> Element:
        return eval_tensor(self.product, self.space, args)

    def value(self, args) -> Element:
        return self.product.value(args)

    def is_zero(self) -> bool:
        return self.product.is_zero()


def _swap01(args):
    return (args[1], args[0], args[2])


def _pair_sign(space, args):
    return 1 if space.parity(args[0]) * space.parity(args[1]) else -1


def check_first_pair_skew(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Axiom (1): skew symmetry in the first two slots."""
    col = _Collector("pre-lie-first-pair-skew", cap)
    space = t.space
    for args in space.tuples(3):
        col.tick()
        lhs = t.value(args)
        rhs = t.value(_swap01(args)).scale(_pair_sign(space, args))
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def _cyclic_tensor(t: TriProduct) -> NaryBracket:
    space = t.space
    entries = {}
    for args in space.tuples(3):
        x, y, z = args
        px, py, pz = (space.parity(a) for a in args)
        total = t.value((x, y, z))
        s1 = -1 if px * ((py + pz) % 2) else 1
        s2 = -1 if pz * ((px + py) % 2) else 1
        total = total + t.value((y, z, x)).scale(s1) + t.value((z, x, y)).scale(s2)
        if not total.is_zero():
            entries[args] = total
    return NaryBracket(3, entries)


def cyclic_supercommutator(t: TriProduct) -> HomSuperAlgebra:
    """The induced ternary bracket, with the product's twist in both slots."""
    if not check_first_pair_skew(t).passed:
        raise ValueError("cyclic supercommutator needs first-pair skew symmetry")
    return multiplicative_algebra(t.space, _cyclic_tensor(t), t.twist)


def check_3_pre_lie(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """All three axioms, the five-argument ones over every basis 5-tuple."""
    skew = check_first_pair_skew(t, cap)
    space = t.space
    cyc = _cyclic_tensor(t)
    alpha_cols = {l: t.twist.apply_basis(l) for l in space.labels}
    base = {l: space.basis_element(l) for l in space.labels}

    col2 = _Collector("pre-lie-nesting", cap)
    col3 = _Collector("pre-lie-cyclic-nesting", cap)
    for args in space.tuples(5):
        x1, x2, x3, x4, x5 = args
        p = [space.parity(a) for a in args]
        c123 = cyc.value((x1, x2, x3))
        c124 = cyc.value((x1, x2, x4))

        col2.tick()
        lhs2 = t.eval([alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        rhs2 = t.eval([c123, alpha_cols[x4], alpha_cols[x5]])
        term = t.eval([alpha_cols[x3], c124, alpha_cols[x5]])
        if p[2] * ((p[0] + p[1]) % 2):
            term = term.scale(-1)
        rhs2 = rhs2 + term
        term = t.eval([alpha_cols[x3], alpha_cols[x4], t.value((x1, x2, x5))])
        if ((p[0] + p[1]) % 2) * ((p[2] + p[3]) % 2):
            term = term.scale(-1)
        rhs2 = rhs2 + term
        if lhs2 != rhs2:
            col2.fail(args, lhs2, rhs2)

        col3.tick()
        lhs3 = t.eval([c123, alpha_cols[x4], alpha_cols[x5]])
        rhs3 = t.eval([alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        term = t.eval([alpha_cols[x2], alpha_cols[x3], t.value((x1, x4, x5))])
        if p[0] * ((p[1] + p[2]) % 2):
            term = term.scale(-1)
        rhs3 = rhs3 + term
        term = t.eval([alpha_cols[x3], alpha_cols[x1], t.value((x2, x4, x5))])
        if p[2] * ((p[0] + p[1]) % 2):
            term = term.scale(-1)
        rhs3 = rhs3 + term
        if lhs3 != rhs3:
            col3.fail(args, lhs3, rhs3)
    return merge_reports("3-pre-lie", skew, col2.report(), col3.report())


def sub_adjacent(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP):
    """Cyclic supercommutator plus its full ternary Hom-Lie verification."""
    if not check_3_pre_lie(t).passed:
        raise ValueError("sub-adjacent bracket needs a verified pre-Lie product")
    alg = cyclic_supercommutator(t)
    report = merge_reports(
        "sub-adjacent-3-hom-lie",
        check_grading(alg, cap),
        check_super_skew(alg, cap),
        check_nambu_identity(alg, cap),
    )
    return alg, report


def check_derived_identities(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Two five-argument consequences that every verified product satisfies."""
    space = t.space
    cyc = _cyclic_tensor(t)
    alpha_cols = {l: t.twist.apply_basis(l) for l in space.labels}

    col_a = _Collector("derived-alternating", cap)
    col_b = _Collector("derived-symmetrized", cap)
    for args in space.tuples(5):
        x1, x2, x3, x4, x5 = args
        p = [space.parity(a) for a in args]

        col_a.tick()
        total = t.eval([cyc.value((x1, x2, x3)), alpha_cols[x4], alpha_cols[x5]])
        term = t.eval([cyc.value((x1, x2, x4)), alpha_cols[x3], alpha_cols[x5]])
        total = total - term.scale(1 if not p[2] * p[3] else -1)
        term = t.eval([cyc.value((x1, x3, x4)), alpha_cols[x2], alpha_cols[x5]])
        total = total + term.scale(-1 if p[1] * ((p[2] + p[3]) % 2) else 1)
        term = t.eval([cyc.value((x2, x3, x4)), alpha_cols[x1], alpha_cols[x5]])
        total = total - term.scale(-1 if p[0] * ((p[1] + p[2] + p[3]) % 2) else 1)
        if not total.is_zero():
            col_a.fail(args, total, Element())

        col_b.tick()
        total = t.eval([alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        term = t.eval([alpha_cols[x3], alpha_cols[x4], t.value((x1, x2, x5))])
        total = total + term.scale(-1 if ((p[0] + p[1]) % 2) * ((p[2] + p[3]) % 2) else 1)
        term = t.eval([alpha_cols[x2], alpha_cols[x4], t.value((x3, x1, x5))])
        exp = p[0] * ((p[1] + p[2] + p[3]) % 2) + p[2] * p[3]
        total = total + term.scale(-1 if exp % 2 else 1)
        term = t.eval([alpha_cols[x3], alpha_cols[x1], t.value((x2, x4, x5))])
        total = total + term.scale(-1 if p[2] * ((p[0] + p[1]) % 2) else 1)
        term = t.eval([alpha_cols[x2], alpha_cols[x3], t.value((x1, x4, x5))])
        total = total + term.scale(-1 if p[0] * ((p[1] + p[2]) % 2) else 1)
        term = t.eval([alpha_cols[x1], alpha_cols[x4], t.value((x2, x3, x5))])
        total = total + term.scale(-1 if p[3] * ((p[1] + p[2]) % 2) else 1)
        if not total.is_zero():
            col_b.fail(args, total, Element())
    return merge_reports("derived-identities", col_a.report(), col_b.report())


def _require_ternary_hom_lie(alg3: HomSuperAlgebra, cap=DEFAULT_COUNTEREXAMPLE_CAP):
    if alg3.arity != 3:
        raise ValueError("a ternary algebra is required")
    for check in (check_grading, check_super_skew, check_nambu_identity):
        report = check(alg3, cap)
        if not report.passed:
            raise ValueError(f"ternary algebra is not Hom-Lie: {report.summary()}")


def rb_induced_product(alg3: HomSuperAlgebra, rb: RotaBaxterOperator) -> TriProduct:
    """{x, y, z} = [R(x), R(y), z] for a verified weight-0 operator."""
    _require_ternary_hom_lie(alg3)
    if rb.weight != 0:
        raise ValueError("the induced product needs a weight-0 operator")
    if not check_rb_nary(rb, alg3).passed:
        raise ValueError("operator is not Rota-Baxter on this algebra")
    space = alg3.space
    R = rb.map
    r_cols = {l: R.apply_basis(l) for l in space.labels}
    entries = {}
    for args in space.tuples(3):
        value = eval_tensor(
            alg3.bracket,
            space,
            [r_cols[args[0]], r_cols[args[1]], space.basis_element(args[2])],
        )
        if not value.is_zero():
            entries[args] = value
    return TriProduct(space, NaryBracket(3, entries), alg3.twists[0])


def rb_morphism_report(
    t: TriProduct, alg3: HomSuperAlgebra, rb: RotaBaxterOperator, cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> CheckReport:
    """R maps the cyclic supercommutator back onto the original bracket."""
    col = _Collector("rb-morphism", cap)
    space = t.space
    cyc = _cyclic_tensor(t)
    R = rb.map
    r_cols = {l: R.apply_basis(l) for l in space.labels}
    for args in space.tuples(3):
        col.tick()
        lhs = R.apply(cyc.value(args))
        rhs = eval_tensor(alg3.bracket, space, [r_cols[a] for a in args])
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def image_product(alg3: HomSuperAlgebra, rb: RotaBaxterOperator) -> TriProduct:
    """{x, y, z} = R([x, y, R^{-1}(z)]) for an invertible weight-0 operator.

    The cyclic supercommutator of the result must reproduce the original
    bracket entrywise; that compatibility is asserted before returning.
    """
    _require_ternary_hom_lie(alg3)
    if rb.weight != 0:
        raise ValueError("the compatible product needs a weight-0 operator")
    if not check_rb_nary(rb, alg3).passed:
        raise ValueError("operator is not Rota-Baxter on this algebra")
    inverse = invert_map(rb.map)
    space = alg3.space
    entries = {}
    for args in space.tuples(3):
        value = rb.map.apply(
            eval_tensor(
                alg3.bracket,
                space,
                [
                    space.basis_element(args[0]),
                    space.basis_element(args[1]),
                    inverse.apply_basis(args[2]),
                ],
            )
        )
        if not value.is_zero():
            entries[args] = value
    product = TriProduct(space, NaryBracket(3, entries), alg3.twists[0])
    compat = compatibility_report(product, alg3)
    if not compat.passed:
        raise AssertionError(f"compatibility failed: {compat.summary()}")
    return product


def compatibility_report(t: TriProduct, alg3: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Entrywise equality of the cyclic supercommutator with a ternary bracket."""
    col = _Collector("supercommutator-compatibility", cap)
    cyc = _cyclic_tensor(t)
    for args in t.space.tuples(3):
        col.tick()
        lhs = cyc.value(args)
        rhs = alg3.bracket.value(args)
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()
