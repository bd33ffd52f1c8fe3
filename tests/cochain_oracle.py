"""Tuple-loop oracles for the cochain identities on the sparse table algebra.

These are the dense sweeps over ``space.tuples(k)`` that the coboundary, the
wedge obstruction, twist invariance and the supertrace test ran before they
became compositions, pair sums and differences of one-output tables
(:meth:`homnambu.cochains.SuperCochain.table`).  Each evaluates every basis
tuple in basis order with ``SuperCochain.eval`` and writes its own signs
(:func:`pair_extractions`); the tests compare them with the library value
for value and report by report.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Sequence

from homnambu.axioms import _Collector, DEFAULT_COUNTEREXAMPLE_CAP
from homnambu.cochains import InductionReport, SuperCochain
from homnambu.core import HomSuperAlgebra, ZERO, pair_extraction_sign


def pair_extractions(parities: Sequence[int]):
    """Yield ``(i, j, sign)`` for every slot pair i < j (1-based), i-major.

    ``sign`` is (-1)^(i+j+1) times :func:`pair_extraction_sign`: the weight of
    the pair term in the coboundary and in cochain-induced brackets.  The
    wedge obstruction uses its negation.
    """
    n = len(parities)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sign = pair_extraction_sign(parities, i, j)
            yield i, j, sign if (i + j) % 2 else -sign


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
