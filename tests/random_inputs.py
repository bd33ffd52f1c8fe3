"""Seeded random inputs shared by the differential tests of the identity families.

It also holds :func:`capped`, the capped form of an oracle's report that
those tests compare the fast checkers against at each cap.

Everything is drawn from a ``random.Random`` the caller seeds, so a failing
case reproduces from the seed alone.  Scalars come from a small set of
rationals with denominators; tensors are graded (every value has the parity
of its arguments) and sparse; maps are homogeneous of a requested parity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

from homnambu.axioms import CheckReport, _compose
from homnambu.core import Element, GradedLinearMap, HomSuperAlgebra, NaryBracket, SuperSpace, map_compose
from homnambu.linalg import invert_map

VALUES = (F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3))


def capped(report: CheckReport, cap: int) -> CheckReport:
    """``report`` keeping only its first ``cap`` counterexamples; every other field as is."""
    return CheckReport(
        report.identity,
        report.passed,
        report.counterexamples[:cap],
        report.failures,
        report.tuples_checked,
    )


def space(rng, max_dim: int = 3) -> SuperSpace:
    labels = tuple(f"e{i}" for i in range(rng.randint(1, max_dim)))
    return SuperSpace(labels, tuple(rng.randint(0, 1) for _ in labels))


def graded_tensor(rng, space, arity, inputs=None, outputs=None, density=0.4) -> dict:
    """Sparse graded entries over ``inputs``^arity with values in ``outputs``."""
    inputs = space.labels if inputs is None else inputs
    outputs = space.labels if outputs is None else outputs
    entries = {}
    for args in itertools.product(inputs, repeat=arity):
        want = sum(space.parity(a) for a in args) % 2
        outs = [l for l in outputs if space.parity(l) == want]
        if outs and rng.random() < density:
            entries[args] = Element({l: rng.choice(VALUES) for l in rng.sample(outs, 1)})
    return entries


def graded_map(rng, space, parity: int = 0) -> GradedLinearMap:
    """A parity-``parity`` map: one or two terms per column, sometimes a zero column."""
    cols = {}
    for l in space.labels:
        targets = [m for m in space.labels if (space.parity(m) + space.parity(l)) % 2 == parity]
        if not targets or rng.random() < 0.15:
            continue
        if parity == 0 and rng.random() < 0.7:
            picked = [l] + rng.sample(targets, min(len(targets), rng.randint(0, 1)))
        else:
            picked = rng.sample(targets, min(len(targets), rng.randint(1, 2)))
        cols[l] = Element({m: rng.choice(VALUES) for m in picked})
    return GradedLinearMap(space, parity, cols)


HARD_POOLS = ("empty-middle", "multi-term")


def hard_space(rng) -> SuperSpace:
    """Three labels, e0 and e1 of one parity, so that an even map may mix them."""
    p = rng.randint(0, 1)
    return SuperSpace(("e0", "e1", "e2"), (p, p, rng.randint(0, 1)))


def hard_map(rng, space, kind: str) -> GradedLinearMap:
    """An even map on :func:`hard_space` whose preimage lists are hard on a kernel index.

    "empty-middle": no column reaches e1, so e1 has no preimage (e1 -> e0 instead);
    "multi-term": e0 -> e0 + e1 and e1 -> e1 + e0, so e0 and e1 each have two.
    """
    value = lambda: rng.choice(VALUES)
    cols = {l: Element({l: value()}) for l in space.labels}
    if kind == "empty-middle":
        cols["e1"] = Element({"e0": value()})
    else:
        cols["e0"] = Element({"e0": value(), "e1": value()})
        cols["e1"] = Element({"e1": value(), "e0": value()})
    return GradedLinearMap(space, 0, cols)


def hits_hard_pool(entries, kind: str) -> bool:
    """Whether some support key has e1 in a middle slot ("empty-middle"), or e0/e1
    both left and right of some slot ("multi-term")."""
    multi = {"e0", "e1"}
    for p in entries:
        n = len(p)
        if kind == "empty-middle" and "e1" in p[1 : n - 1]:
            return True
        if kind == "multi-term" and any(multi & set(p[:i]) and multi & set(p[i + 1 :]) for i in range(n)):
            return True
    return False


def even_invertible(rng, space) -> GradedLinearMap:
    """A seeded even invertible map: a unit lower- times an upper-triangular matrix, each mixing labels of one parity."""
    mix = lambda i, j: rng.choice(VALUES) if space.parities[i] == space.parities[j] and rng.random() < 0.7 else 0
    d = range(space.dim)
    lower = [[1 if i == j else mix(i, j) if i > j else 0 for j in d] for i in d]
    upper = [[rng.choice(VALUES) if i == j else mix(i, j) if i < j else 0 for j in d] for i in d]
    return map_compose(GradedLinearMap.from_matrix(space, lower, 0), GradedLinearMap.from_matrix(space, upper, 0))


def monomial(rng, space) -> GradedLinearMap:
    """A signed, scaled permutation of the basis that keeps parity."""
    cols = {}
    for p in (0, 1):
        labels = [l for l in space.labels if space.parity(l) == p]
        for l, m in zip(labels, rng.sample(labels, len(labels))):
            cols[l] = Element({m: rng.choice(VALUES)})
    return GradedLinearMap(space, 0, cols)


def transport(bundle, P) -> HomSuperAlgebra:
    """``bundle``'s algebra moved along the even invertible map P.

    The bracket becomes P∘T∘(P^-1⊗..⊗P^-1) and each twist P a P^-1; the
    result is isomorphic to the original, so every identity holds or fails
    on it alike.  Cochains and operators are not carried over.
    """
    alg = bundle.algebra
    inverse = invert_map(P)
    table = _compose(alg.bracket.table, P, [inverse] * alg.arity)
    twists = tuple(map_compose(P, map_compose(a, inverse)) for a in alg.twists)
    return HomSuperAlgebra(alg.space, NaryBracket.of_table(alg.arity, table), twists, alg.multiplicative_flag)
