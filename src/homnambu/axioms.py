"""Exhaustive exact verification of the defining identities.

Every checker quantifies over homogeneous basis tuples only; multilinearity of
the brackets makes that sufficient.  Checkers never raise on a failing
identity: failures are collected (capped, lexicographically ordered) into a
:class:`CheckReport` so badly broken inputs still produce bounded output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    adjacent_transposition_sign,
    eval_bracket,
)

DEFAULT_COUNTEREXAMPLE_CAP = 16


@dataclass(frozen=True)
class Counterexample:
    args: tuple[str, ...]
    lhs: object
    rhs: object
    note: str = ""

    def describe(self) -> str:
        loc = f"({', '.join(self.args)})"
        if self.note:
            loc += f" [{self.note}]"
        return f"{loc}: lhs={self.lhs!r} rhs={self.rhs!r}"


@dataclass(frozen=True)
class CheckReport:
    identity: str
    passed: bool
    counterexamples: tuple[Counterexample, ...]
    failures: int
    tuples_checked: int

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.identity} "
            f"(tuples={self.tuples_checked}, failures={self.failures})"
        )


class _Collector:
    """Accumulates failures in iteration order, keeping at most ``cap``."""

    def __init__(self, identity: str, cap: int = DEFAULT_COUNTEREXAMPLE_CAP):
        self.identity = identity
        self.cap = cap
        self.kept: list[Counterexample] = []
        self.failures = 0
        self.checked = 0

    def tick(self, n: int = 1):
        self.checked += n

    def fail(self, args, lhs, rhs, note: str = ""):
        self.failures += 1
        if len(self.kept) < self.cap:
            self.kept.append(Counterexample(tuple(args), lhs, rhs, note))

    def report(self) -> CheckReport:
        return CheckReport(
            identity=self.identity,
            passed=self.failures == 0,
            counterexamples=tuple(self.kept),
            failures=self.failures,
            tuples_checked=self.checked,
        )


def merge_reports(identity: str, *reports: CheckReport) -> CheckReport:
    return CheckReport(
        identity=identity,
        passed=all(r.passed for r in reports),
        counterexamples=tuple(c for r in reports for c in r.counterexamples),
        failures=sum(r.failures for r in reports),
        tuples_checked=sum(r.tuples_checked for r in reports),
    )


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_grading(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Output parity of every stored entry equals the mod-2 sum of input parities."""
    col = _Collector("grading", cap)
    space = alg.space
    for args in sorted(alg.bracket.entries, key=space.sort_key):
        value = alg.bracket.entries[args]
        col.tick()
        want = sum(space.parity(a) for a in args) % 2
        bad = {l: c for l, c in value.coeffs.items() if space.parity(l) != want}
        if bad:
            col.fail(args, value, Element(), note=f"expected parity {want}")
    return col.report()


def check_super_skew(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Adjacent-transposition skew symmetry over all basis tuples and positions."""
    col = _Collector("super-skew", cap)
    n = alg.arity
    space = alg.space
    for args in space.tuples(n):
        col.tick()
        parities = alg.parity_tuple(args)
        lhs = alg.bracket.value(args)
        for i in range(1, n):
            swapped = args[: i - 1] + (args[i], args[i - 1]) + args[i + 1 :]
            sign = adjacent_transposition_sign(parities, i)
            rhs = alg.bracket.value(swapped).scale(sign)
            if lhs != rhs:
                col.fail(args, lhs, rhs, note=f"swap at {i}")
    return col.report()


def _twist_commutation(col: _Collector, f: GradedLinearMap, alg: HomSuperAlgebra):
    """f(a(x)) = a(f(x)) on every basis vector, for each distinct twist a."""
    for twist in dict.fromkeys(alg.twists):
        for label in alg.space.labels:
            col.tick()
            lhs = f.apply(twist.apply_basis(label))
            rhs = twist.apply(f.apply_basis(label))
            if lhs != rhs:
                col.fail((label,), lhs, rhs, note="twist commutation")


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


# ---------------------------------------------------------------------------
# Jacobi-type identities
# ---------------------------------------------------------------------------

def check_hom_jacobi(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Cyclic sum (-1)^{|x||z|} [alpha(x), [y, z]] = 0 over basis triples."""
    if alg.arity != 2:
        raise ValueError("the cyclic Jacobi check applies to binary brackets")
    col = _Collector("hom-jacobi", cap)
    alpha = alg.twists[0]
    space = alg.space
    twisted = {l: alpha.apply_basis(l) for l in space.labels}
    for x, y, z in space.tuples(3):
        col.tick()
        total = Element()
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            sign = -1 if space.parity(a) * space.parity(c) else 1
            inner = alg.bracket.value((b, c))
            if inner.is_zero():
                continue
            total = total + eval_bracket(alg, [twisted[a], inner]).scale(sign)
        if not total.is_zero():
            col.fail((x, y, z), total, Element())
    return col.report()


def check_nambu_identity(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """The twisted fundamental identity for the full family of twists.

    For every (x_1..x_{n-1}) and (y_1..y_n) over the basis:

        [a_1 x_1, .., a_{n-1} x_{n-1}, [y_1..y_n]]
          = sum_i (-1)^{|X| |Y|^{i-1}}
            [a_1 y_1, .., a_{i-1} y_{i-1}, [x_1..x_{n-1}, y_i], a_i y_{i+1}, .., a_{n-1} y_n]

    with a_j the j-th twist; the twist subscript on the right lags the argument
    index by one after the inner bracket, exactly as the identity is stated.

    One scatter-accumulate pass over the tensor's support decides every cell.
    Denominators are cleared first (sigma for the tensor, tau_j for twist j).
    Each twist occurs once in every term of either side, so both sides scale
    by sigma^2 prod(tau_j) and integer arithmetic stays exact.  The x-tuples
    are visited in basis order: the prefixes of the support and their twist
    preimages, since every other x-tuple makes both sides vanish.  For each
    one, every nonzero term of the left side (through the twist images of the
    x's) and of the right side (through the twist preimages around the inner
    bracket) is added into a per-y-tuple accumulator holding both sides.  A
    cell whose two sides differ fails; failures are reported in
    lexicographic order, the first ``cap`` with both sides divided back by
    the common scale.  ``tuples_checked`` counts all d^(2n-1) cells, though
    the cells that are zero on both sides are never visited.
    """
    n = alg.arity
    space = alg.space
    labels = space.labels
    width = len(labels)
    position = {l: k for k, l in enumerate(labels)}
    parity = dict(zip(labels, space.parities))
    entries = alg.bracket.entries
    sigma = _common_denominator(c for v in entries.values() for c in v.coeffs.values())
    terms = {  # integer structure constants, (label, coeff) per output
        args: [(l, int(c * sigma)) for l, c in v.coeffs.items()]
        for args, v in entries.items()
    }
    scale = sigma * sigma
    forward, reverse = [], []  # per twist: integer columns and preimages
    for t in alg.twists:
        tau = _common_denominator(c for l in labels for c in t.apply_basis(l).coeffs.values())
        scale *= tau
        cols = {
            l: [(out, int(c * tau)) for out, c in t.apply_basis(l).coeffs.items()]
            for l in labels
        }
        pre: dict[str, list] = {}
        for src, image in cols.items():
            for out, c in image:
                pre.setdefault(out, []).append((src, c))
        forward.append(cols)
        reverse.append(pre)

    rows: dict[tuple, dict[str, tuple]] = {}  # rows[prefix][last] = support key
    by_out: dict[str, list] = {}  # by_out[e] = [(ys, coeff of e in T[ys])]
    for args, value in terms.items():
        rows.setdefault(args[:-1], {})[args[-1]] = args
        for e, c in value:
            by_out.setdefault(e, []).append((args, c))
    # accumulator slots: left side at k, right side at width + k, per output label
    lhs_slots = {args: [(position[l], c) for l, c in v] for args, v in terms.items()}
    rhs_slots = {args: [(width + k, c) for k, c in v] for args, v in lhs_slots.items()}

    # outer[e]: for every support key p and slot i with p[i] = e, the parity
    # of p[:i] (that of y_1..y_{i-1}, the twists being even), the right-side
    # slots of T[p], and the twist preimages (left, right, coeff) around slot i
    outer = defaultdict(list)
    for p in terms:
        for i, e in enumerate(p):
            right = _choices(p[i + 1 :], reverse[i:])
            partials = [
                (lt, rt, lc * rc) for lt, lc in _choices(p[:i], reverse[:i]) for rt, rc in right
            ]
            if partials:
                outer[e].append((sum(parity[q] for q in p[:i]) % 2, rhs_slots[p], partials))

    relevant = set(rows)
    for prefix in rows:
        relevant.update(xs for xs, _ in _choices(prefix, reverse))

    failures = 0
    kept = []
    for xs in sorted(relevant, key=space.sort_key):
        acc = defaultdict(lambda: [0] * (2 * width))  # y-tuple -> [lhs | rhs]
        for w, cw in _choices(xs, forward):
            for e, key in rows.get(w, {}).items():
                base = lhs_slots[key]
                for ys, c in by_out.get(e, ()):
                    vec = acc[ys]
                    f = cw * c
                    for k, ck in base:
                        vec[k] += f * ck
        x_odd = sum(parity[x] for x in xs) % 2
        for b, key in rows.get(xs, {}).items():
            for e, ce in terms[key]:
                for head, base, partials in outer.get(e, ()):
                    f0 = -ce if x_odd and head else ce
                    for lt, rt, coeff in partials:
                        vec = acc[lt + (b,) + rt]
                        f = f0 * coeff
                        for k, ck in base:
                            vec[k] += f * ck
        bad = [ys for ys, vec in acc.items() if vec[:width] != vec[width:]]
        failures += len(bad)
        if bad and len(kept) < cap:
            bad.sort(key=space.sort_key)
            for ys in bad[: cap - len(kept)]:
                vec = acc[ys]
                lhs, rhs = (
                    Element({labels[k]: Fraction(v, scale) for k, v in enumerate(half)})
                    for half in (vec[:width], vec[width:])
                )
                kept.append(Counterexample(xs + ys, lhs, rhs))
    return CheckReport("nambu", failures == 0, tuple(kept), failures, space.dim ** (2 * n - 1))


def _common_denominator(coeffs) -> int:
    return math.lcm(1, *(c.denominator for c in coeffs))


def _choices(target, maps):
    """(tuple, coeff) for every pick of one (label, coeff) from each maps[j][target[j]]."""
    out = [((), 1)]
    for coord, m in zip(target, maps):
        pool = m.get(coord)
        if not pool:
            return []
        out = [(head + (l,), c * cl) for head, c in out for l, cl in pool]
    return out


def adjoint_map(alg: HomSuperAlgebra, xs) -> GradedLinearMap:
    """The map y -> [x_1, .., x_{n-1}, y]; parity is the total degree of the x's.

    Arguments may be labels or homogeneous elements; mixed-parity elements are
    rejected because the degree enters sign bookkeeping downstream.
    """
    space = alg.space
    elems = [space.basis_element(x) if isinstance(x, str) else x for x in xs]
    if len(elems) != alg.arity - 1:
        raise ValueError(f"adjoint needs {alg.arity - 1} arguments")
    parity = 0
    for e in elems:
        p = e.parity_in(space)
        if p is None:
            raise ValueError("adjoint arguments must be homogeneous")
        parity = (parity + p) % 2
    columns = {
        l: eval_bracket(alg, elems + [space.basis_element(l)]) for l in space.labels
    }
    return GradedLinearMap(space, parity, columns)
