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
    DEFAULT_COUNTEREXAMPLE_CAP,
    _compose,
    _diff_report,
    _permute,
    _skew_report,
    _sum_tables,
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
    multiplicative_algebra,
)
from .linalg import invert_map
from .rotabaxter import RotaBaxterOperator, check_rb

# The cyclic supercommutator as orders of (x, y, z), each with its Koszul sign.
_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


class TriProduct:
    """A twisted ternary product, super-skew in the first two slots only; ``cyclic`` is its cyclic supercommutator."""

    __slots__ = ("space", "product", "twist", "cyclic")

    def __init__(self, space: SuperSpace, product: NaryBracket, twist: GradedLinearMap):
        if product.arity != 3:
            raise ValueError("product must be ternary")
        if twist.parity != 0:
            raise ValueError("twist must be even")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "twist", twist)
        cyclic = _sum_tables(_permute(product.table, order, space) for order in _CYCLIC)
        object.__setattr__(self, "cyclic", NaryBracket.of_table(3, cyclic))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TriProduct is immutable")

    @classmethod
    def from_generators(cls, space, generators, twist) -> "TriProduct":
        """Complete only the first-pair transposition orbit of the generators."""
        table = complete_skew_orbit(3, generators, space, swaps=(1,))
        return cls(space, NaryBracket(3, table), twist)

    def value(self, args) -> Element:
        return self.product.value(args)

    def is_zero(self) -> bool:
        return self.product.is_zero()


def check_first_pair_skew(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Axiom (1): skew symmetry in the first two slots."""
    return _skew_report("pre-lie-first-pair-skew", t.product.table, t.space, 3, (1,), cap, notes=False)


def cyclic_supercommutator(t: TriProduct) -> HomSuperAlgebra:
    """The induced ternary bracket, with the product's twist in both slots."""
    if not check_first_pair_skew(t).passed:
        raise ValueError("cyclic supercommutator needs first-pair skew symmetry")
    return multiplicative_algebra(t.space, t.cyclic, t.twist)


# The five-argument identities as signed-term tables.  A term
# (c, inner, slot, order) reorders x_1..x_5 as y = (x_order[0], .., x_order[4])
# and stands for
#
#     c * koszul_sign(order) * {a(y_1), .., inner(y_slot, y_slot+1, y_slot+2), .., a(y_5)}
#
# with the inner product ("t" the product, "cyc" its cyclic supercommutator)
# in outer slot ``slot`` and the twist a on the remaining arguments.  Each
# identity is (name, (left-side terms, right-side terms)); the derived
# identities have an empty (zero) right side.
_PRE_LIE_AXIOMS = (
    ("pre-lie-nesting", (
        ((1, "t", 3, (1, 2, 3, 4, 5)),),
        (
            (1, "cyc", 1, (1, 2, 3, 4, 5)),
            (1, "cyc", 2, (3, 1, 2, 4, 5)),
            (1, "t", 3, (3, 4, 1, 2, 5)),
        ),
    )),
    ("pre-lie-cyclic-nesting", (
        ((1, "cyc", 1, (1, 2, 3, 4, 5)),),
        (
            (1, "t", 3, (1, 2, 3, 4, 5)),
            (1, "t", 3, (2, 3, 1, 4, 5)),
            (1, "t", 3, (3, 1, 2, 4, 5)),
        ),
    )),
)
_DERIVED_IDENTITIES = (
    ("derived-alternating", (
        (
            (1, "cyc", 1, (1, 2, 3, 4, 5)),
            (-1, "cyc", 1, (1, 2, 4, 3, 5)),
            (1, "cyc", 1, (1, 3, 4, 2, 5)),
            (-1, "cyc", 1, (2, 3, 4, 1, 5)),
        ),
        (),
    )),
    ("derived-symmetrized", (
        (
            (1, "t", 3, (1, 2, 3, 4, 5)),
            (1, "t", 3, (3, 4, 1, 2, 5)),
            (1, "t", 3, (2, 4, 3, 1, 5)),
            (1, "t", 3, (3, 1, 2, 4, 5)),
            (1, "t", 3, (2, 3, 1, 4, 5)),
            (1, "t", 3, (1, 4, 2, 3, 5)),
        ),
        (),
    )),
)


def _five_argument_reports(t: TriProduct, identities, cap) -> list[CheckReport]:
    """One report per (name, sides) identity, each over every basis 5-tuple."""
    space, T = t.space, t.product.table
    inner = {"t": T, "cyc": t.cyclic.table}
    nested = {}  # (kind, slot) -> T∘(a.., inner, ..a), the inner product in outer slot ``slot``

    def side(terms):
        for c, kind, slot, order in terms:
            if (kind, slot) not in nested:
                maps = [inner[kind] if s == slot else t.twist for s in (1, 2, 3)]
                nested[kind, slot] = _compose(T, slot_maps=maps)
            yield _permute(nested[kind, slot], order, space, c)

    return [
        _diff_report(name, space, 5, _sum_tables(side(left)), _sum_tables(side(right)), cap)
        for name, (left, right) in identities
    ]


def check_3_pre_lie(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """All three axioms, the five-argument ones over every basis 5-tuple."""
    skew = check_first_pair_skew(t, cap)
    nesting, cyclic = _five_argument_reports(t, _PRE_LIE_AXIOMS, cap)
    return merge_reports("3-pre-lie", skew, nesting, cyclic)


def sub_adjacent(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP):
    """Cyclic supercommutator plus its full ternary Hom-Lie verification."""
    if not check_3_pre_lie(t).passed:
        raise ValueError("sub-adjacent bracket needs a verified pre-Lie product")
    return _sub_adjacent(t, cap)


def _sub_adjacent(t: TriProduct, cap: int):
    """:func:`sub_adjacent` for a product already known to be pre-Lie."""
    alg = multiplicative_algebra(t.space, t.cyclic, t.twist)
    report = merge_reports(
        "sub-adjacent-3-hom-lie",
        check_grading(alg, cap),
        check_super_skew(alg, cap),
        check_nambu_identity(alg, cap),
    )
    return alg, report


def check_derived_identities(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Two five-argument consequences that every verified product satisfies."""
    alternating, symmetrized = _five_argument_reports(t, _DERIVED_IDENTITIES, cap)
    return merge_reports("derived-identities", alternating, symmetrized)


def _require_rota_baxter(alg3: HomSuperAlgebra, rb: RotaBaxterOperator, kind: str):
    """The preconditions of both operator-induced products, in order."""
    if alg3.arity != 3:
        raise ValueError("a ternary algebra is required")
    for check in (check_grading, check_super_skew, check_nambu_identity):
        report = check(alg3, DEFAULT_COUNTEREXAMPLE_CAP)
        if not report.passed:
            raise ValueError(f"ternary algebra is not Hom-Lie: {report.summary()}")
    if rb.weight != 0:
        raise ValueError(f"the {kind} product needs a weight-0 operator")
    if not check_rb(rb, alg3).passed:
        raise ValueError("operator is not Rota-Baxter on this algebra")


def _rb_product(alg3: HomSuperAlgebra, rb: RotaBaxterOperator, kind: str) -> TriProduct:
    """The "induced" product [R(x), R(y), z] or the "compatible" one R([x, y, R^{-1}(z)]), unverified."""
    R = rb.map
    out_map, slot_maps = (None, [R, R, None]) if kind == "induced" else (R, [None, None, invert_map(R)])
    table = _compose(alg3.bracket.table, out_map=out_map, slot_maps=slot_maps)
    return TriProduct(alg3.space, NaryBracket.of_table(3, table), alg3.twists[0])


def rb_induced_product(alg3: HomSuperAlgebra, rb: RotaBaxterOperator) -> TriProduct:
    """{x, y, z} = [R(x), R(y), z] for a verified weight-0 operator."""
    _require_rota_baxter(alg3, rb, "induced")
    return _rb_product(alg3, rb, "induced")


def rb_morphism_report(
    t: TriProduct, alg3: HomSuperAlgebra, rb: RotaBaxterOperator, cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> CheckReport:
    """R maps the cyclic supercommutator back onto the original bracket."""
    cyc, T = t.cyclic.table, alg3.bracket.table
    return _diff_report("rb-morphism", t.space, 3, _compose(cyc, rb.map), _compose(T, slot_maps=[rb.map] * 3), cap)


def image_product(alg3: HomSuperAlgebra, rb: RotaBaxterOperator) -> TriProduct:
    """{x, y, z} = R([x, y, R^{-1}(z)]) for an invertible weight-0 operator.

    The cyclic supercommutator of the result must reproduce the original
    bracket entrywise; that compatibility is asserted before returning.
    """
    _require_rota_baxter(alg3, rb, "compatible")
    product = _rb_product(alg3, rb, "compatible")
    compat = compatibility_report(product, alg3)
    if not compat.passed:
        raise AssertionError(f"compatibility failed: {compat.summary()}")
    return product


def compatibility_report(t: TriProduct, alg3: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Entrywise equality of the cyclic supercommutator with a ternary bracket."""
    return _diff_report("supercommutator-compatibility", t.space, 3, t.cyclic.table, alg3.bracket.table, cap)
