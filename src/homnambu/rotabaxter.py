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

from .axioms import CheckReport, _Collector, DEFAULT_COUNTEREXAMPLE_CAP, _compose, _twist_commutation
from .cochains import SuperCochain, cochain_induced_bracket
from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    ZERO,
    eval_bracket,
    pair_extractions,
    record,
    scalar,
)
from .derivations import DerivationCandidate, check_derivation
from .linalg import invert_map


@record
class RotaBaxterOperator:
    map: GradedLinearMap
    weight: Fraction

    def __post_init__(self):
        if self.map.parity != 0:
            raise ValueError("Rota-Baxter operators must be even")
        object.__setattr__(self, "weight", scalar(self.weight))


def _rb_tables(rb: RotaBaxterOperator, alg: HomSuperAlgebra):
    """Both sides of the subset-sum identity as sparse tables (:func:`axioms._compose`).

    The left side is T∘R^{⊗n}; the right side is R∘Σ_I w^(|I|-1) T∘M_I over
    the nonempty slot subsets I, with M_I the identity on I and R elsewhere.
    """
    n = alg.arity
    R = rb.map
    entries = alg.bracket.entries
    total: dict[tuple, Element] = {}
    for bits in range(1, 2 ** n):
        weight = rb.weight ** (bin(bits).count("1") - 1)
        if weight:
            term = _compose(entries, slot_maps=[None if bits >> i & 1 else R for i in range(n)])
            for xs, value in term.items():
                total[xs] = total.get(xs, Element()) + value.scale(weight)
    return _compose(entries, slot_maps=[R] * n), _compose(total, out_map=R)


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

    def summary(self) -> str:
        return (
            f"weight-0 operator: {'PASS' if self.rb.passed else 'FAIL'}; "
            f"inverse is derivation: {'PASS' if self.inverse_derivation.passed else 'FAIL'}; "
            f"verdicts {'agree' if self.agree else 'DISAGREE'}"
        )


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
    if alg.arity != 2:
        raise ValueError("kernel condition starts from a binary algebra")
    space = alg.space
    r_cols = {l: R.apply_basis(l) for l in space.labels}
    kernel_col = _Collector("rb-kernel-condition", cap)
    for args in space.tuples(n):
        kernel_col.tick()
        pairs = list(pair_extractions([space.parity(a) for a in args]))
        total = Element()
        for i in range(1, n + 1):
            for k, l, sign in pairs:
                if i in (k, l):
                    continue
                pair = eval_bracket(alg, [r_cols[args[k - 1]], r_cols[args[l - 1]]])
                if pair.is_zero():
                    continue
                weight = phi.eval([
                    space.basis_element(a) if m == i else r_cols[a]
                    for m, a in enumerate(args, 1)
                    if m not in (k, l)
                ])
                total = total + pair.scale(sign * weight)
        image = R.apply(total)
        if not image.is_zero():
            kernel_col.fail(args, image, Element(), note="sum escapes ker(R)")
    induced = cochain_induced_bracket(phi, alg, n)
    nary = check_rb(RotaBaxterOperator(R, ZERO), induced, cap)
    return KernelConditionReport(kernel_col.report(), nary)
