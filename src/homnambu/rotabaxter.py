"""Rota-Baxter operators of arbitrary weight on binary and n-ary brackets.

Operators are verified, never solved for (the defining identity is quadratic
in the operator).  The identity sums over all nonempty subsets I of the
argument slots, replacing the operator by the identity inside I and weighting
by weight^(|I|-1); for binary brackets this is the familiar three-term form
and for ternary ones the 7-term expansion, both of which the test suite
recomputes verbatim and compares with the subset sum.
"""

from __future__ import annotations

from fractions import Fraction

from .axioms import (
    CheckReport, _Collector, DEFAULT_COUNTEREXAMPLE_CAP, _compose, _diff_report, _sum_tables, _twist_commutation
)
from .cochains import SuperCochain, _check_base, _pair_sum, _weighed, cochain_induced_bracket
from .core import GradedLinearMap, HomSuperAlgebra, ZERO, record, scalar
from .derivations import DerivationCandidate, check_derivation
from .linalg import invert_map


@record
class RotaBaxterOperator:
    map: GradedLinearMap
    weight: Fraction

    def __post_init__(self):
        if self.map.parity != 0:
            raise ValueError("Rota-Baxter operators must be even")
        vars(self).update(weight=scalar(self.weight))


def _rb_tables(rb: RotaBaxterOperator, alg: HomSuperAlgebra):
    """Both sides of the subset-sum identity as integer tables (:func:`axioms._compose`).

    The left side is T∘R^{⊗n}; the right side is R∘Σ_I w^(|I|-1) T∘M_I over
    the nonempty slot subsets I, with M_I the identity on I and R elsewhere.
    """
    n = alg.arity
    R = rb.map
    T = alg.bracket.table
    terms = []
    for bits in range(1, 2 ** n):
        k = bin(bits).count("1") - 1
        num, den = rb.weight.numerator ** k, rb.weight.denominator ** k
        if num:
            scale, term = _compose(T, slot_maps=[None if bits >> i & 1 else R for i in range(n)])
            terms.append((scale * den, {xs: {r: v * num for r, v in cell.items()} for xs, cell in term.items()}))
    return _compose(T, slot_maps=[R] * n), _compose(_sum_tables(terms), out_map=R)


def check_rb(rb: RotaBaxterOperator, alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Twist commutation plus the subset-sum Rota-Baxter identity over all basis tuples.

    At arity 2 the subset sum is R(R(x)y + xR(y) + weight * xy), the binary
    identity, which keeps its own name in reports.
    """
    n = alg.arity
    name = "rota-baxter" if n == 2 else "rota-baxter-nary"
    col = _Collector(f"{name}(weight={rb.weight})", cap)
    _twist_commutation(col, rb.map, alg)
    col.tick(alg.space.dim ** n)
    col.fail_diff(*_rb_tables(rb, alg), alg.space.sort_key)
    return col.report()


@record
class EquivalenceReport:
    """Weight-0 verdict for R against the derivation verdict for its inverse."""

    rb: CheckReport
    inverse_derivation: CheckReport

    @property
    def agree(self) -> bool:
        return self.rb.passed == self.inverse_derivation.passed

    passed = agree


def check_inverse_derivation_equiv(
    R: GradedLinearMap, alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> EquivalenceReport:
    """R is weight-0 Rota-Baxter exactly when R^{-1} is an even plain derivation.

    The derivation side is tested at power 0 (identity spectators); singular
    R raises ValueError.
    """
    inverse = invert_map(R)
    rb_report = check_rb(RotaBaxterOperator(R, ZERO), alg, cap)
    deriv_report = check_derivation(DerivationCandidate(inverse, 0), alg, cap)
    return EquivalenceReport(rb_report, deriv_report)


@record
class KernelConditionReport:
    """Kernel-membership sum versus the n-ary verdict on the induced bracket."""

    kernel: CheckReport
    nary: CheckReport

    @property
    def agree(self) -> bool:
        return self.kernel.passed == self.nary.passed

    passed = agree


def check_phi_rb_kernel_condition(
    R: GradedLinearMap,
    phi: SuperCochain,
    alg: HomSuperAlgebra,
    n: int,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> KernelConditionReport:
    """Two routes to 'R is weight-0 Rota-Baxter on the induced n-ary bracket'.

    Route one evaluates, for every basis n-tuple, the signed sum in which one
    slot stays untwisted, two slots are bracketed through R and all remaining
    slots feed phi through R, and tests that R kills the total.  Route two runs
    the subset-sum check directly on the induced algebra.  The verdicts agree
    when the hypotheses of the displayed equivalence hold; the report records
    both so the equivalence itself is exercised.
    """
    _check_base(phi, alg, "kernel condition starts from a binary algebra")
    induced = cochain_induced_bracket(phi, alg, n)
    pairs = _weighed(phi, _compose(alg.bracket.table, slot_maps=[R, R]))
    # phi with R on every slot but one, summed over that slot, times B∘(R, R)
    weighed = _sum_tables(
        _compose(pairs, slot_maps=[None if m == free else R for m in range(phi.degree)] + [None, None])
        for free in range(phi.degree)
    )
    image = _compose(_pair_sum(weighed, n, alg.space), out_map=R)
    kernel = _diff_report("rb-kernel-condition", alg.space, n, image, (1, {}), cap, "sum escapes ker(R)")
    return KernelConditionReport(kernel, check_rb(RotaBaxterOperator(R, ZERO), induced, cap))
