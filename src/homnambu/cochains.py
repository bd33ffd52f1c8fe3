"""Scalar-valued super-skew cochains and the brackets they induce.

A degree-k cochain is an even, super-skew-symmetric k-linear form given by its
values on basis tuples.  Input lists values on a generating set and the loader
completes the skew orbit, mirroring how brackets are loaded.

An even degree-(n-2) cochain f on a binary multiplicative algebra induces an
n-ary product: each term picks a pair of slots, brackets them and weighs by f
of the remaining slots, with an alternating pair sign and the Koszul sign of
pulling the pair out.  The induced product is an n-Hom-Lie structure exactly
when the wedge obstruction vanishes for every anchor tuple and f is invariant
under twisting its first slot; both conditions are checked exhaustively here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .axioms import (
    CheckReport,
    _Collector,
    DEFAULT_COUNTEREXAMPLE_CAP,
    _integer_columns,
    _leibniz_kernel,
    _numerators,
    check_super_skew,
)
from .core import (
    Element,
    HomSuperAlgebra,
    NaryBracket,
    SuperSpace,
    ZERO,
    ONE,
    complete_skew_orbit,
    multiplicative_algebra,
    pair_extractions,
    record,
    scalar,
)
from .derivations import DerivationCandidate, check_derivation


class SuperCochain:
    """Even super-skew k-linear form, stored as a completed sparse tensor."""

    __slots__ = ("space", "degree", "values")

    def __init__(self, space: SuperSpace, degree: int, values, complete: bool = True):
        if degree < 1:
            raise ValueError("cochain degree must be at least 1")
        vals = {tuple(args): scalar(v) for args, v in values.items()}
        for args, v in vals.items():
            if len(args) != degree:
                raise ValueError(f"entry {args} does not have degree {degree}")
            if v != 0 and sum(space.parity(a) for a in args) % 2 != 0:
                raise ValueError(
                    f"even cochain cannot be nonzero on odd-parity tuple {args}"
                )
        if complete:
            vals = complete_skew_orbit(degree, vals, space)
        else:
            vals = {a: v for a, v in vals.items() if v != 0}
            if complete_skew_orbit(degree, vals, space) != vals:
                raise ValueError("cochain table is not closed under its super-skew orbits")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SuperCochain is immutable")

    def value(self, args) -> Fraction:
        return self.values.get(tuple(args), ZERO)

    def eval(self, args: list[Element]) -> Fraction:
        """Multilinear extension to arbitrary elements."""
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        total = ZERO
        supports = [list(e.coeffs.items()) for e in args]
        if any(not s for s in supports):
            return ZERO
        for combo in itertools.product(*supports):
            v = self.values.get(tuple(l for l, _ in combo))
            if v is None:
                continue
            coeff = ONE
            for _, c in combo:
                coeff *= c
            total += coeff * v
        return total

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        return (
            isinstance(other, SuperCochain)
            and self.space == other.space
            and self.degree == other.degree
            and self.values == other.values
        )


def coboundary(f: SuperCochain, alg: HomSuperAlgebra) -> SuperCochain:
    """Degree k -> k+1: sum over slot pairs of f(bracketed pair, twisted rest).

    Pair (i, j) contributes with sign (-1)^(i+j+1) times the Koszul extraction
    sign; for k = 1 this collapses to x, y -> f([x, y]).
    """
    if alg.arity != 2:
        raise ValueError("coboundary is defined over a binary algebra")
    alpha = alg.twists[0]
    space = alg.space
    k = f.degree
    out = {}
    for args in space.tuples(k + 1):
        total = ZERO
        for i, j, sign in pair_extractions([space.parity(a) for a in args]):
            inner = alg.bracket.value((args[i - 1], args[j - 1]))
            if inner:
                rest = [alpha.apply_basis(a) for m, a in enumerate(args, 1) if m not in (i, j)]
                total += sign * f.eval([inner] + rest)
        if total:
            out[args] = total
    return SuperCochain(space, k + 1, out, complete=False)


def wedge_obstruction(
    phi: SuperCochain, anchor: tuple[str, ...], ys: tuple[str, ...], alg: HomSuperAlgebra
) -> Fraction:
    """The scalar obstruction pairing phi with itself through the bracket.

    ``anchor`` has length n-3 and pins the first slots of the inner copy of
    phi; for ternary products it is empty and the inner copy is phi itself.
    """
    n = phi.degree + 2
    if len(anchor) != n - 3 or len(ys) != n:
        raise ValueError("anchor/argument lengths inconsistent with the degree")
    space = alg.space
    anchor_elems = [space.basis_element(a) for a in anchor]
    total = ZERO
    for i, j, sign in pair_extractions([space.parity(y) for y in ys]):
        inner = alg.bracket.value((ys[i - 1], ys[j - 1]))
        outer = phi.value(tuple(y for m, y in enumerate(ys, 1) if m not in (i, j)))
        if inner and outer:
            total -= sign * outer * phi.eval(anchor_elems + [inner])
    return total


@record
class InductionReport:
    wedge: CheckReport
    twist: CheckReport

    @property
    def passed(self) -> bool:
        return self.wedge.passed and self.twist.passed

    def reports(self) -> tuple[CheckReport, ...]:
        return (self.wedge, self.twist)


def check_induction_conditions(
    phi: SuperCochain, alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> InductionReport:
    """Both conditions for the induced n-ary product to be n-Hom-Lie."""
    if alg.arity != 2:
        raise ValueError("induction conditions live over a binary algebra")
    n = phi.degree + 2
    space = alg.space
    alpha = alg.twists[0]

    wedge_col = _Collector("wedge-obstruction", cap)
    for anchor in space.tuples(n - 3):
        for ys in space.tuples(n):
            wedge_col.tick()
            value = wedge_obstruction(phi, anchor, ys, alg)
            if value != 0:
                wedge_col.fail(anchor + ys, value, ZERO)

    twist_col = _Collector("twist-invariance", cap)
    for args, lhs, rhs in _first_slot_twists(phi, alpha):
        twist_col.tick()
        if lhs != rhs:
            twist_col.fail(args, lhs, rhs)
    return InductionReport(wedge_col.report(), twist_col.report())


def _first_slot_twists(phi: SuperCochain, alpha):
    """(x, phi(alpha x_1, x_2, ..), phi(x)) for every basis tuple x."""
    space = phi.space
    for args in space.tuples(phi.degree):
        lhs = phi.eval([alpha.apply_basis(args[0])] + [space.basis_element(a) for a in args[1:]])
        yield args, lhs, phi.value(args)


def triple_product(phi: SuperCochain, alg: HomSuperAlgebra) -> HomSuperAlgebra:
    """Ternary bracket weighting each binary bracket by phi of the cyclic slot."""
    if phi.degree != 1:
        raise ValueError("triple product needs a degree-1 cochain")
    return cochain_induced_bracket(phi, alg, 3)


def cochain_induced_bracket(phi: SuperCochain, alg: HomSuperAlgebra, n: int) -> HomSuperAlgebra:
    """The n-ary product induced by a degree-(n-2) cochain; twists all equal alpha."""
    if alg.arity != 2:
        raise ValueError("induced brackets start from a binary algebra")
    if phi.degree != n - 2:
        raise ValueError(f"arity {n} needs a degree-{n - 2} cochain, got {phi.degree}")
    alpha = alg.twists[0]
    space = alg.space
    entries = {}
    for args in space.tuples(n):
        total = Element()
        for i, j, sign in pair_extractions([space.parity(a) for a in args]):
            inner = alg.bracket.value((args[i - 1], args[j - 1]))
            weight = phi.value(tuple(a for m, a in enumerate(args, 1) if m not in (i, j)))
            if inner and weight:
                total = total + inner.scale(sign * weight)
        if total:
            entries[args] = total
    out = multiplicative_algebra(space, NaryBracket(n, entries), alpha)
    skew = check_super_skew(out)
    if not skew.passed:  # the construction is skew by design; guards sign bugs
        raise AssertionError(f"induced bracket lost skew symmetry: {skew.summary()}")
    return out


def is_supertrace(phi: SuperCochain, alg: HomSuperAlgebra) -> bool:
    """Vanishes on brackets in the first slot and is twist-invariant there."""
    if alg.arity != 2:
        raise ValueError("supertrace condition lives over a binary algebra")
    space = alg.space
    for pair in space.tuples(2):
        inner = alg.bracket.value(pair)
        if inner.is_zero():
            continue
        for rest in space.tuples(phi.degree - 1):
            if phi.eval([inner] + [space.basis_element(r) for r in rest]) != 0:
                return False
    return all(lhs == rhs for _, lhs, rhs in _first_slot_twists(phi, alg.twists[0]))


@record
class TransferReport:
    """Hypothesis check plus, when it holds, the transferred-derivation check."""

    hypothesis: CheckReport
    conclusion: CheckReport | None

    @property
    def status(self) -> str:
        if not self.hypothesis.passed:
            return "hypothesis-failed"
        return "transferred" if self.conclusion.passed else "conclusion-failed"

    @property
    def passed(self) -> bool:
        return self.status == "transferred"


def derivation_transfer(
    cand: DerivationCandidate,
    phi: SuperCochain,
    alg: HomSuperAlgebra,
    n: int,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> TransferReport:
    """A base derivation annihilating phi slotwise is a derivation of the induced bracket.

    The hypothesis sums (-1)^(|D| prefix) phi(x_1, .., D(x_i), .., x_{n-2}) over
    every slot and basis tuple; when it fails the conclusion is not evaluated
    and no claim is made about it.
    """
    base = check_derivation(cand, alg)
    if not base.passed:
        raise ValueError("transfer requires a verified derivation of the base algebra")
    # phi is a tensor with the one output 0, D the slot map and the identity
    # the spectator; the out map is zero
    space = alg.space
    labels = space.labels
    sigma, terms = _numerators({args: {0: v} for args, v in phi.values.items()})
    delta, (d,) = _integer_columns([cand.map], labels)
    identity = [{l: [(l, 1)] for l in labels}] * phi.degree
    kernel = _leibniz_kernel(terms, (0,), space, identity, identity)
    col = _Collector("phi-annihilation", cap)
    col.tick(space.dim ** phi.degree)
    acc = kernel({}, [d] * phi.degree, cand.map.parity)
    col.fail_cells(acc, lambda half: Fraction(half[0], sigma * delta), space.sort_key, swap=True)
    hypothesis = col.report()
    if not hypothesis.passed:
        return TransferReport(hypothesis, None)
    induced = cochain_induced_bracket(phi, alg, n)
    conclusion = check_derivation(cand, induced, cap)
    return TransferReport(hypothesis, conclusion)
