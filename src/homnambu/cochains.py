"""Scalar-valued super-skew cochains and the brackets they induce.

A degree-k cochain is an even, super-skew-symmetric k-linear form given by its
values on basis tuples.  Input lists values on a generating set and the loader
completes the skew orbit, mirroring how brackets are loaded.

An even degree-(n-2) cochain f on a binary multiplicative algebra induces an
n-ary product: each term picks a pair of slots, brackets them and weighs by f
of the remaining slots, with an alternating pair sign and the Koszul sign of
pulling the pair out.  The induced product is an n-Hom-Lie structure exactly
when the wedge obstruction vanishes for every anchor tuple and f is invariant
under twisting its first slot.  Both conditions, the coboundary and the
supertrace test are compositions, pair sums and differences of sparse tables
(:func:`axioms._compose`), with the cochain as a one-output table
(:attr:`SuperCochain.table`, args -> {0: numerator}): they decide every
basis tuple but visit only the supports.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .axioms import (
    CheckReport, _Collector, DEFAULT_COUNTEREXAMPLE_CAP, _compose, _differs, _diff_report, _leibniz_kernel,
    _leibniz_sweep, _negated, _permute, _skew_report, _sum_tables,
)
from .core import (
    Element, HomSuperAlgebra, NaryBracket, SuperSpace, ZERO, complete_skew_orbit, element_at, integer_table,
    multiplicative_algebra, multilinear_terms, record, scalar,
)
from .derivations import DerivationCandidate, check_derivation


class SuperCochain:
    """Even super-skew k-linear form: a completed sparse tensor and its one-output integer ``table``."""

    __slots__ = ("space", "degree", "values", "table")

    def __init__(self, space: SuperSpace, degree: int, values, complete: bool = True):
        if degree < 1:
            raise ValueError("cochain degree must be at least 1")
        vals = {tuple(args): scalar(v) for args, v in values.items()}
        for args, v in vals.items():
            if len(args) != degree:
                raise ValueError(f"entry {args} does not have degree {degree}")
            if v != 0 and sum(space.parity(a) for a in args) % 2 != 0:
                raise ValueError(f"even cochain cannot be nonzero on odd-parity tuple {args}")
        if complete:
            vals = complete_skew_orbit(degree, vals, space)
        else:
            vals = {a: v for a, v in vals.items() if v != 0}
            if complete_skew_orbit(degree, vals, space) != vals:
                raise ValueError("cochain table is not closed under its super-skew orbits")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "table", integer_table({args: {0: v} for args, v in vals.items()}))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SuperCochain is immutable")

    def value(self, args) -> Fraction:
        return self.values.get(tuple(args), ZERO)

    def eval(self, args: list[Element]) -> Fraction:
        """Multilinear extension to arbitrary elements."""
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        return sum((coeff * v for v, coeff in multilinear_terms(self.values, args)), ZERO)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        return (
            isinstance(other, SuperCochain)
            and self.space == other.space
            and self.degree == other.degree
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.space, self.degree, frozenset(self.values.items())))


def _check_space(phi: SuperCochain, alg: HomSuperAlgebra):
    if phi.space != alg.space:
        raise ValueError("cochain on a different space")


def _scalar(side: Element) -> Fraction:
    """A one-output cell back to its cochain value, ZERO where the table has none."""
    return side.coeffs.get(0, ZERO)


def _first_slot(phi: SuperCochain, m) -> dict:
    """phi∘(m, id, .., id); ``m`` is a map or the bracket's table."""
    return _compose(phi.table, slot_maps=[m] + [None] * (phi.degree - 1))


def coboundary(f: SuperCochain, alg: HomSuperAlgebra) -> SuperCochain:
    """Degree k -> k+1: sum over slot pairs of f(bracketed pair, twisted rest).

    Pair (i, j) contributes with sign (-1)^(i+j+1) times the Koszul extraction
    sign (:func:`_pair_sum`); for k = 1 this collapses to x, y -> f([x, y]).
    """
    _check_space(f, alg)
    if alg.arity != 2:
        raise ValueError("coboundary is defined over a binary algebra")
    k = f.degree
    scale, pulled = _compose(f.table, slot_maps=[alg.bracket.table] + [alg.twists[0]] * (k - 1))
    # f(T(p), alpha(r)) sits at p + r; moving p behind r relabels the cells,
    # it swaps no graded arguments, so it takes no Koszul sign
    scale, delta = _pair_sum((scale, {x[2:] + x[:2]: v for x, v in pulled.items()}), k + 1, alg.space)
    return SuperCochain(alg.space, k + 1, {x: Fraction(v[0], scale) for x, v in delta.items()}, complete=False)


def wedge_obstruction(
    phi: SuperCochain, anchor: tuple[str, ...], ys: tuple[str, ...], alg: HomSuperAlgebra
) -> Fraction:
    """The scalar obstruction pairing phi with itself through the bracket.

    ``anchor`` has length n-3 and pins the first slots of the inner copy of
    phi; for ternary products it is empty and the inner copy is phi itself.
    The value is -phi(anchor, [ys]_phi) (:func:`_wedge_table`), the induced
    bracket [ys]_phi summed only from the pair terms at permutations of ys.
    """
    _check_space(phi, alg)
    if alg.arity != 2:
        raise ValueError("wedge obstruction lives over a binary algebra")
    n = phi.degree + 2
    if len(anchor) != n - 3 or len(ys) != n:
        raise ValueError("anchor/argument lengths inconsistent with the degree")
    alg.space.sort_key(ys)  # unknown labels raise
    inner = element_at(_induced_table(phi, alg, sorted(ys)), tuple(ys))
    return -phi.eval([alg.space.basis_element(a) for a in anchor] + [inner])


def _wedge_table(phi: SuperCochain, alg: HomSuperAlgebra) -> dict:
    """The wedge obstruction at every anchor + ys, a one-output table over 2n-3 slots.

    The pair sum -sum_{i<j} (pair sign) phi(ys_rest) phi(anchor, [ys_i, ys_j])
    is linear in the bracketed pair, so it is -phi(anchor, [ys]_phi) with
    [ys]_phi the induced bracket (:func:`_induced_table`): -phi∘(id, .., id, [..]_phi).
    """
    scale, cells = _compose(phi.table, slot_maps=[None] * (phi.degree - 1) + [_induced_table(phi, alg)])
    return scale, {x: _negated(v) for x, v in cells.items()}


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
    """Both conditions for the induced n-ary product to be n-Hom-Lie.

    The wedge obstruction vanishes at every anchor + ys, over d^(2n-3) basis
    tuples, and phi(alpha x_1, x_2, ..) = phi(x) at every basis tuple x, the
    left side reported as lhs.
    """
    _check_space(phi, alg)
    if alg.arity != 2:
        raise ValueError("induction conditions live over a binary algebra")
    n = phi.degree + 2
    space = alg.space
    return InductionReport(
        _diff_report("wedge-obstruction", space, 2 * n - 3, _wedge_table(phi, alg), (1, {}), cap, value=_scalar),
        _diff_report(
            "twist-invariance", space, phi.degree, _first_slot(phi, alg.twists[0]), phi.table, cap, value=_scalar
        ),
    )


def triple_product(phi: SuperCochain, alg: HomSuperAlgebra) -> HomSuperAlgebra:
    """Ternary bracket weighting each binary bracket by phi of the cyclic slot."""
    if phi.degree != 1:
        raise ValueError("triple product needs a degree-1 cochain")
    return cochain_induced_bracket(phi, alg, 3)


def cochain_induced_bracket(phi: SuperCochain, alg: HomSuperAlgebra, n: int) -> HomSuperAlgebra:
    """The n-ary product induced by a degree-(n-2) cochain; twists all equal alpha."""
    _check_space(phi, alg)
    if alg.arity != 2:
        raise ValueError("induced brackets start from a binary algebra")
    if phi.degree != n - 2:
        raise ValueError(f"arity {n} needs a degree-{n - 2} cochain, got {phi.degree}")
    table = _induced_table(phi, alg)
    # the construction is skew by design; guards sign bugs
    if not _skew_report("induced", table, alg.space, n, range(1, n), 0).passed:
        raise AssertionError("induced bracket lost skew symmetry")
    return multiplicative_algebra(alg.space, NaryBracket.of_table(n, table), alg.twists[0])


def _induced_table(phi: SuperCochain, alg: HomSuperAlgebra, labels=None) -> tuple[int, dict]:
    """The induced bracket's integer table: the pair sum of phi(r) T(p) at r + p.

    Given the sorted ``labels`` of one cell, only the terms r + p that permute them are summed.
    """
    keep = lambda x: labels is None or sorted(x) == labels
    return _pair_sum(_weighed(phi, alg.bracket.table, keep), phi.degree + 2, alg.space)


def _weighed(phi: SuperCochain, table, keep=lambda x: True) -> tuple[int, dict]:
    """The integer table phi(r) T(p) at every r + p that ``keep`` admits, T an integer table."""
    (sp, values), (st, cells) = phi.table, table
    return sp * st, {
        r + p: {l: w[0] * c for l, c in v.items()} for r, w in values.items() for p, v in cells.items() if keep(r + p)
    }


def _pair_sum(table, n, space):
    """Sum over slot pairs i < j of (-1)^(i+j+1) _permute(table, rest + (i, j)).

    The pair in ``table``'s last two slots moves to slots i, j with the weight
    (-1)^(i+j+1) times :func:`core.pair_extraction_sign`.
    """
    slots = range(1, n + 1)
    return _sum_tables(
        _permute(table, tuple(m for m in slots if m not in (i, j)) + (i, j), space, 1 if (i + j) % 2 else -1)
        for i, j in itertools.combinations(slots, 2)
    )


def is_supertrace(phi: SuperCochain, alg: HomSuperAlgebra) -> bool:
    """Vanishes on brackets in the first slot and is twist-invariant there."""
    _check_space(phi, alg)
    if alg.arity != 2:
        raise ValueError("supertrace condition lives over a binary algebra")
    return not _first_slot(phi, alg.bracket.table)[1] and not _differs(_first_slot(phi, alg.twists[0]), phi.table)


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
    _check_space(phi, alg)
    base = check_derivation(cand, alg)
    if not base.passed:
        raise ValueError("transfer requires a verified derivation of the base algebra")
    # phi is a tensor with the one output 0, D the slot map and the identity
    # the spectator; the out map is zero
    space = alg.space
    labels = space.labels
    sigma, terms = phi.table
    delta, d = cand.map.integer_columns
    identity = [{l: {l: 1} for l in labels}] * phi.degree
    kernel = _leibniz_kernel(terms, (0,), space, identity, identity)
    col = _Collector("phi-annihilation", cap)
    col.tick(space.dim ** phi.degree)
    instance = ((), cand.map.parity, {}, [d] * phi.degree)
    _leibniz_sweep(col, kernel, [instance], lambda half: Fraction(half[0], sigma * delta), space.sort_key, swap=True)
    hypothesis = col.report()
    if not hypothesis.passed:
        return TransferReport(hypothesis, None)
    induced = cochain_induced_bracket(phi, alg, n)
    conclusion = check_derivation(cand, induced, cap)
    return TransferReport(hypothesis, conclusion)
