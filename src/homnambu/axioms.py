"""Exhaustive exact verification of the defining identities.

Every checker quantifies over homogeneous basis tuples only; multilinearity of
the brackets makes that sufficient.  Checkers never raise on a failing
identity: failures are collected (capped, lexicographically ordered) into a
:class:`CheckReport` so badly broken inputs still produce bounded output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    adjacent_transposition_sign,
    eval_bracket,
    record,
)

DEFAULT_COUNTEREXAMPLE_CAP = 16


@record
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


@record
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

    def fail_cells(self, acc, value, sort_key, head=(), swap=False):
        """Fail the kernel cells whose two sides differ, in basis order after ``head``.

        ``value`` turns a side back into the reported value, for kept cells
        only; ``swap`` reports the right side as lhs.
        """
        width = len(next(iter(acc.values()), ())) // 2
        bad = [ys for ys, vec in acc.items() if vec[:width] != vec[width:]]
        halves = (slice(width), slice(width, None))[:: -1 if swap else 1]
        self._keep(bad, lambda ys: [value(acc[ys][h]) for h in halves], sort_key, head)

    def fail_diff(self, left, right, sort_key, note=""):
        """Fail the cells where two sparse tables (:func:`_compose`) differ, in basis order."""
        bad = [x for x in left.keys() | right.keys() if left.get(x) != right.get(x)]
        self._keep(bad, lambda x: (left.get(x, Element()), right.get(x, Element())), sort_key, note=note)

    def _keep(self, bad, sides, sort_key, head=(), note=""):
        """Count the failing cells ``bad``; keep the first ones in basis order, up to the cap."""
        self.failures += len(bad)
        room = self.cap - len(self.kept)
        for ys in sorted(bad, key=sort_key)[:room] if bad and room > 0 else ():
            self.kept.append(Counterexample(head + ys, *sides(ys), note))

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
    """f(a(x)) = a(f(x)) on every basis vector, for each distinct twist a (a 1-ary tensor)."""
    for twist in dict.fromkeys(alg.twists):
        col.tick(alg.space.dim)
        a = {(c,): image for c, image in twist.columns.items()}
        col.fail_diff(_compose(a, f), _compose(a, slot_maps=[f]), alg.space.sort_key, "twist commutation")


def check_multiplicative(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """alpha([x_1..x_n]) = [alpha(x_1)..alpha(x_n)] for the shared twist."""
    alpha = _shared_twist(alg)
    col = _Collector("multiplicative", cap)
    col.tick(alg.space.dim ** alg.arity)
    T = alg.bracket.entries
    col.fail_diff(_compose(T, alpha), _compose(T, slot_maps=[alpha] * alg.arity), alg.space.sort_key)
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

    That is, ad_x = [x_1..x_{n-1}, .] acts on the bracket as a twisted
    derivation with out map ad_{ax} = [a_1 x_1, .., a_{n-1} x_{n-1}, .], so
    one :func:`_leibniz_kernel` call per x-tuple decides all of its y-cells.
    The x-tuples are visited in basis order: the prefixes of the support and
    their twist preimages, since every other x-tuple makes both sides vanish.
    Denominators are cleared once (sigma for the tensor, tau for the twists),
    so both sides scale by sigma^2 tau^(n-1).  ``tuples_checked`` counts all
    d^(2n-1) cells, though the cells that are zero on both sides are never
    visited.
    """
    n = alg.arity
    space = alg.space
    labels = space.labels
    sigma, terms = _numerators({args: v.coeffs for args, v in alg.bracket.entries.items()})
    tau, forward = _integer_columns(alg.twists, labels)
    reverse = [_preimages(cols) for cols in forward]
    # slot j carries twist j before the inner bracket and twist j-1 after it
    kernel = _leibniz_kernel(terms, labels, space, reverse, [None] + reverse)
    rows: dict[tuple, dict] = {}  # rows[prefix][last] = T[prefix + (last,)]
    for args, value in terms.items():
        rows.setdefault(args[:-1], {})[args[-1]] = value
    relevant = set(rows)
    for prefix in rows:
        relevant.update(xs for xs, _ in _choices(prefix, reverse))

    col = _Collector("nambu", cap)
    col.tick(space.dim ** (2 * n - 1))
    value = _as_element(labels, sigma * sigma * tau ** (n - 1))
    for xs in sorted(relevant, key=space.sort_key):
        ad = defaultdict(lambda: defaultdict(int))  # ad_{ax}, over the twist images of xs
        for w, cw in _choices(xs, forward):
            for e, image in rows.get(w, {}).items():
                for l, c in image:
                    ad[e][l] += cw * c
        out_cols = {e: list(image.items()) for e, image in ad.items()}
        odd = sum(space.parity(x) for x in xs) % 2
        acc = kernel(out_cols, [rows.get(xs, {})] * n, odd)
        col.fail_cells(acc, value, space.sort_key, head=xs)
    return col.report()


def _leibniz_kernel(terms, outputs, space, before, after):
    """The one twisted-Leibniz scatter, over the support of an integer tensor T.

    At every cell y (an argument tuple of T) it accumulates both sides of

        O(T(y)) = sum_i (-1)^(|f| (p(y_1) + .. + p(y_{i-1})))
                  T(S_1 y_1, .., S_{i-1} y_{i-1}, f_i(y_i), S'_{i+1} y_{i+1}, .., S'_n y_n)

    ``terms`` maps each support key of T to its (output, numerator) list,
    ordered by ``outputs``.  ``before[j]`` and ``after[j]`` are the preimage
    lists (:func:`_preimages`) of S_j and S'_j; parities come from ``space``.
    The support indexes are built here, once.  Returns ``scatter(out_cols,
    slot_cols, odd, lhs_scale=1)``, where ``out_cols`` and ``slot_cols[i]``
    hold the numerator columns of O and f_i and ``odd`` is |f|.  It maps
    each cell some term reaches to [lhs_scale * left side | right side],
    one entry per output on each side.
    """
    width = len(outputs)
    position = {e: k for k, e in enumerate(outputs)}
    parity = dict(zip(space.labels, space.parities))
    by_out = defaultdict(list)  # by_out[e] = [(y, coeff of e in T[y])]
    for args, value in terms.items():
        for e, c in value:
            by_out[e].append((args, c))
    # outer[i][e]: for every support key p with p[i] = e and every pick of
    # spectator preimages around slot i, the parity of the left pick, the
    # right-side accumulator slots of T[p], the picks and their coefficient
    outer = [defaultdict(list) for _ in after]
    for p, value in terms.items():
        base = [(width + position[e], c) for e, c in value]
        for i, e in enumerate(p):
            right = _choices(p[i + 1 :], after[i + 1 :])
            for lt, lc in _choices(p[:i], before[:i]) if right else ():
                odd_prefix = sum(parity[y] for y in lt) % 2
                outer[i][e].extend((odd_prefix, base, lt, rt, lc * rc) for rt, rc in right)

    zero = [0] * (2 * width)

    def scatter(out_cols, slot_cols, odd, lhs_scale=1):
        acc = defaultdict(zero.copy)
        for e, image in out_cols.items():
            column = [(position[r], lhs_scale * c) for r, c in image]
            for ys, c in by_out.get(e, ()):
                vec = acc[ys]
                for k, ck in column:
                    vec[k] += c * ck
        for index, cols in zip(outer, slot_cols):
            for b, image in cols.items():
                for e, ce in image:
                    for odd_prefix, base, lt, rt, coeff in index.get(e, ()):
                        f = (-ce if odd and odd_prefix else ce) * coeff
                        vec = acc[lt + (b,) + rt]
                        for k, ck in base:
                            vec[k] += f * ck
        return acc

    return scatter


def _compose(entries, out_map=None, slot_maps=None):
    """The sparse table of O∘T∘(M_1⊗..⊗M_n), scattered over the support of T.

    ``entries`` maps T's argument tuples to elements, like :attr:`NaryBracket.entries`,
    and so does the result (nonzero values only).  O is ``out_map``, M_i is
    ``slot_maps[i]``; ``None`` is the identity.  The value at x sums
    prod_i <y_i | M_i x_i> O(T(y)) over the support keys y, with no Koszul
    sign: the maps must be even, or T unary.
    """
    keys = list(entries)
    n = len(keys[0]) if keys else 0
    pre = [
        {y[i]: [(y[i], 1)] for y in keys} if m is None
        else _preimages({c: image.coeffs.items() for c, image in m.columns.items()})
        for i, m in enumerate(slot_maps or [None] * n)
    ]
    out = None if out_map is None else {c: image.coeffs for c, image in out_map.columns.items()}
    table: dict[tuple, dict] = {}
    for y, value in entries.items():
        image = value.coeffs.items() if out is None else [
            (r, v * cr) for l, v in value.coeffs.items() for r, cr in out[l].items()
        ]
        for xs, c in _choices(y, pre):
            cell = table.setdefault(xs, {})
            for r, v in image:
                cell[r] = cell.get(r, 0) + c * v
    return {xs: e for xs, cell in table.items() if (e := Element(cell))}


def _shared_twist(alg: HomSuperAlgebra) -> GradedLinearMap:
    alpha = alg.twists[0]
    if any(t != alpha for t in alg.twists[1:]):
        raise ValueError("operation requires a single shared twist")
    return alpha


def _numerators(table):
    """(denominator, numerators): a table of coefficient dicts over one denominator.

    Each key's dict becomes a list of (inner key, integer numerator) pairs.
    """
    den = math.lcm(1, *(c.denominator for coeffs in table.values() for c in coeffs.values()))
    return den, {
        key: [(l, int(c * den)) for l, c in coeffs.items()] for key, coeffs in table.items()
    }


def _integer_columns(maps, labels):
    """(denominator, columns): each map's columns as numerator lists over one denominator."""
    den, cols = _numerators(
        {(j, l): m.apply_basis(l).coeffs for j, m in enumerate(maps) for l in labels}
    )
    return den, [{l: cols[j, l] for l in labels} for j in range(len(maps))]


def _preimages(cols) -> dict:
    """pre[r] = [(c, coeff)] for every entry (r, coeff) of column c."""
    pre: dict[str, list] = {}
    for c, image in cols.items():
        for r, coeff in image:
            pre.setdefault(r, []).append((c, coeff))
    return pre


def _as_element(labels, scale):
    """Turn one side of a kernel accumulator back into an :class:`Element`."""
    return lambda half: Element({l: Fraction(v, scale) for l, v in zip(labels, half)})


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
