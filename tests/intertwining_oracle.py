"""Tuple-loop oracles for the intertwining identities O∘T = T∘(M_1⊗..⊗M_n).

These are the per-tuple loops that multiplicativity, the Rota-Baxter
morphism, the supercommutator compatibility and the two operator-induced
ternary products ran before they shared :func:`homnambu.axioms._compose`.
Each evaluates both sides at every basis tuple, in basis order, with the
generic multilinear evaluator, and the cyclic supercommutator is the loop in
``prelie_oracle``.  The builders keep their verify-then-build preconditions,
written out here in their order, which call the library checkers.
"""

from __future__ import annotations

from homnambu.axioms import (
    CheckReport,
    _Collector,
    DEFAULT_COUNTEREXAMPLE_CAP,
    check_grading,
    check_nambu_identity,
    check_super_skew,
)
from homnambu.core import HomSuperAlgebra, NaryBracket, eval_bracket, eval_tensor
from homnambu.linalg import invert_map
from homnambu.prelie import TriProduct
from homnambu.rotabaxter import RotaBaxterOperator, check_rb
from prelie_oracle import _cyclic_tensor


def check_multiplicative(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """alpha([x_1..x_n]) = [alpha(x_1)..alpha(x_n)] for the shared twist."""
    col = _Collector("multiplicative", cap)
    alpha = alg.twists[0]
    for t in alg.twists[1:]:
        if t != alpha:
            raise ValueError("multiplicativity check needs a single shared twist")
    n = alg.arity
    space = alg.space
    twisted = {l: alpha.apply_basis(l) for l in space.labels}
    for args in space.tuples(n):
        col.tick()
        lhs = alpha.apply(alg.bracket.value(args))
        rhs = eval_bracket(alg, [twisted[a] for a in args])
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


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
    if not check_rb(rb, alg3).passed:
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
    if not check_rb(rb, alg3).passed:
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
