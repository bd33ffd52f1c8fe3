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
    Element, GradedLinearMap, HomSuperAlgebra, _nonzero, _sum_tables, element_at, eval_bracket,
    format_scalar, koszul_sign, record,
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
        side = lambda v: repr(v) if isinstance(v, Element) else format_scalar(v)  # a cochain's Fraction
        return f"{loc}: lhs={side(self.lhs)} rhs={side(self.rhs)}"


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

    def fail_diff(self, left, right, sort_key, note="", value=lambda side: side):
        """Fail the cells where two integer tables (:func:`_compose`) differ, in basis order.

        A kept cell's sides are divided back to elements (zero where absent)
        and ``value`` turns each into the reported side.
        """
        bad = _differs(left, right)
        sides = lambda x: (value(element_at(left, x)), value(element_at(right, x)))
        self.fail_first(len(bad), self.first(bad, sort_key), sides, note=note)

    def first(self, bad, sort_key) -> list:
        """The cells of ``bad`` that the cap still has room to keep, in basis order."""
        room = self.cap - len(self.kept)
        return sorted(bad, key=sort_key)[:room] if bad and room > 0 else []

    def fail_first(self, failures, first, sides, head=(), note=""):
        """Count ``failures`` failing cells; keep cells of ``first`` (:meth:`first`), up to the cap."""
        self.failures += failures
        for ys in first[: max(self.cap - len(self.kept), 0)]:
            self.kept.append(Counterexample(head + ys, *sides(ys), note))

    def report(self) -> CheckReport:
        return CheckReport(
            identity=self.identity,
            passed=self.failures == 0,
            counterexamples=tuple(self.kept),
            failures=self.failures,
            tuples_checked=self.checked,
        )


def _diff_report(identity, space, n, left, right, cap, note="", value=lambda side: side) -> CheckReport:
    """Fail the cells where two integer n-ary tables differ, out of all d^n basis tuples."""
    col = _Collector(identity, cap)
    col.tick(space.dim ** n)
    col.fail_diff(left, right, space.sort_key, note, value)
    return col.report()


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
    space, table = alg.space, alg.bracket.table
    parity = dict(zip(space.labels, space.parities)).__getitem__
    of_parity = [{l for l in space.labels if parity(l) == p} for p in (0, 1)]
    bad = [args for args, value in table[1].items() if not of_parity[sum(map(parity, args)) % 2].issuperset(value)]
    col = _Collector("grading", cap)
    col.tick(len(table[1]))
    for args in sorted(bad, key=space.sort_key):
        col.fail(args, element_at(table, args), Element(), note=f"expected parity {sum(map(parity, args)) % 2}")
    return col.report()


def check_super_skew(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Adjacent-transposition skew symmetry over all basis tuples and positions."""
    return _skew_report("super-skew", alg.bracket.table, alg.space, alg.arity, range(1, alg.arity), cap)


def _skew_report(identity, table, space, n, swaps, cap, notes=True) -> CheckReport:
    """T = -T∘(swap at i) on every basis n-tuple, for each 1-based i in ``swaps``; T an integer table.

    Failures come in basis order, then by i, noted "swap at i" if ``notes``.
    """
    col = _Collector(identity, cap)
    col.tick(space.dim ** n)
    same = tuple(range(1, n + 1))
    rhs = [(i, _permute(table, same[: i - 1] + (i + 1, i) + same[i + 1 :], space, -1)) for i in swaps]
    bad = [(space.sort_key(x), i, x, r) for i, r in rhs for x in _differs(table, r)]
    for _, i, x, r in sorted(bad, key=lambda b: b[:2]):
        col.fail(x, element_at(table, x), element_at(r, x), f"swap at {i}" if notes else "")
    return col.report()


def _twist_commutation(col: _Collector, f: GradedLinearMap, alg: HomSuperAlgebra):
    """f(a(x)) = a(f(x)) on every basis vector, for each distinct twist a (a 1-ary tensor)."""
    for twist in dict.fromkeys(alg.twists):
        col.tick(alg.space.dim)
        a = _unary(twist)
        col.fail_diff(_compose(a, f), _compose(a, slot_maps=[f]), alg.space.sort_key, "twist commutation")


def check_multiplicative(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """alpha([x_1..x_n]) = [alpha(x_1)..alpha(x_n)] for the shared twist, on the Nambu kernel's T∘(., alpha, .., alpha).

    O = alpha, f_1 = alpha and f_i = 0 for i >= 2 scatter alpha∘T - T∘alpha^(⊗n).
    """
    alpha, n = _shared_twist(alg).integer_columns, alg.arity
    col = _Collector("multiplicative", cap)
    col.tick(alg.space.dim ** n)
    _leibniz_sweep(col, alg._nambu_kernel, [((), 0, alpha, [alpha] + [(1, {})] * (n - 1))])
    return col.report()


# ---------------------------------------------------------------------------
# Jacobi-type identities
# ---------------------------------------------------------------------------

def check_hom_jacobi(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Cyclic sum (-1)^{|x||z|} [alpha(x), [y, z]] = 0 over basis triples.

    That is (-1)^{|x||z|} times the Koszul-signed cyclic sum of J = T∘(alpha, T).
    """
    if alg.arity != 2:
        raise ValueError("the cyclic Jacobi check applies to binary brackets")
    space = alg.space
    T = alg.bracket.table
    J = _compose(T, slot_maps=[alg.twists[0], T])
    scale, total = _sum_tables(_permute(J, order, space) for order in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    signed = {x: _negated(v) if space.parity(x[0]) * space.parity(x[2]) else v for x, v in total.items()}
    return _diff_report("hom-jacobi", space, 3, (scale, signed), (1, {}), cap)


def check_nambu_identity(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """The twisted fundamental identity for the full family of twists.

    For every (x_1..x_{n-1}) and (y_1..y_n) over the basis:

        [a_1 x_1, .., a_{n-1} x_{n-1}, [y_1..y_n]]
          = sum_i (-1)^{|X| |Y|^{i-1}}
            [a_1 y_1, .., a_{i-1} y_{i-1}, [x_1..x_{n-1}, y_i], a_i y_{i+1}, .., a_{n-1} y_n]

    with a_j the j-th twist; the twist subscript on the right lags the argument
    index by one after the inner bracket, exactly as the identity is stated.

    That is, ad_x = [x_1..x_{n-1}, .] acts on the bracket as a twisted derivation with out map
    ad_{ax} = [a_1 x_1, .., a_{n-1} x_{n-1}, .], read off the Nambu kernel's last slot T∘(a_1, .., a_{n-1}, .) at the
    kernel's scale: one :func:`_leibniz_sweep` instance per x-tuple where either is nonzero, in basis order (other
    x-tuples make both sides vanish); ``tuples_checked`` counts all d^(2n-1) cells.
    """
    n, space, kernel = alg.arity, alg.space, alg._nambu_kernel
    labels, d = space.labels, space.dim
    sigma, terms = alg.bracket.table
    rows: dict[tuple, dict] = {}  # rows[x][last] = T[x + (last,)]: ad_x
    for args, value in terms.items():
        rows.setdefault(args[:-1], {})[args[-1]] = value
    ad = {}  # ad[X][e] = ad_{ax}(e), X the x-tuple's index in basis order: the slot's keys are X d w + output position
    for e, (even, odd) in kernel.index[n].items():
        for k, v in (*even.items(), *odd.items()):
            ad.setdefault(k // (d * d), {}).setdefault(e, {})[labels[k % (d * d)]] = v
    ad = {tuple(labels[X // d ** j % d] for j in reversed(range(n - 1))): image for X, image in ad.items()}
    at, parity = {l: k for k, l in enumerate(labels)}, dict(zip(labels, space.parities))
    instances = [(xs, sum(map(parity.get, xs)) % 2, (kernel.scale, ad.get(xs, {})), [(sigma, rows.get(xs, {}))] * n)
                 for xs in sorted(rows.keys() | ad.keys(), key=lambda xs: [at[l] for l in xs])]  # (x, |x|, ad_ax, n ad_x)
    col = _Collector("nambu", cap)
    col.tick(d ** (2 * n - 1))
    _leibniz_sweep(col, kernel, instances)
    return col.report()


def _leibniz_sweep(col, kernel, instances, cell=None, swap=False, value=lambda side: side):
    """Fail into ``col`` the cells where the two sides of a :func:`_leibniz_kernel` differ.

    An instance is (head, |f|, O, [f_1, .., f_n]), each map an integer table (scale, {column: {row:
    numerator}}).  Every map of the call goes over one denominator delta, the lcm of their scales, so both
    sides are numerators over the kernel's ``scale`` times delta.  With the f_i negated, the scatter's
    nonzero keys are the failing cells y, integers in basis order: counted, the first kept at head + y
    (labels from the kernel's space), the left side read from the O terms and the right side that minus
    the difference, each an :class:`Element` over the kernel's outputs that ``value`` turns into the
    reported value.  ``swap`` reports the Leibniz sum as lhs and ``cell`` checks that one y.  The scatter
    is linear in (O, f_1, .., f_n) jointly, so it runs once per distinct primitive key (:func:`_primitive`),
    serving every instance with it at its own g.
    """
    space, outputs = kernel.space, kernel.outputs
    if cell is not None:
        space.sort_key(cell)  # unknown labels raise
    labels, d, width = space.labels, space.dim, len(outputs)
    delta = math.lcm(1, *(m[0] for _, _, out, slots in instances for m in (out, *slots)))
    side = lambda g, half: value(Element({o: Fraction(g * v, kernel.scale * delta) for o, v in zip(outputs, half)}))
    memo = {}  # primitive key -> (failure count, the first failing cells in basis order -> both sides)
    for head, odd, out, slots in instances:
        pattern = tuple(map(slots.index, slots))  # equal f_i enter the key once, at their first slot
        g, key = _primitive((odd, pattern), delta, out, *[f if pattern[i] == i else (1, {}) for i, f in enumerate(slots)])
        if (entry := memo.get(key)) is None:
            cols = [{} for _ in range(len(slots) + 1)]
            for t, c, r, v in key[1:]:  # O by its columns, the negated f_i by their rows
                cols[t].setdefault(r if t else c, []).append((c, -v, 0) if t else (r, v, 0))
            acc, lhs = kernel(cols[0], [cols[1 + i] for i in pattern], odd, cell=cell)
            bad = {k // width for k, v in acc.items() if v} if any(acc.values()) else ()
            kept = {}
            for y in col.first(bad, None):
                left = [lhs.get(k, 0) for k in range(y * width, y * width + width)]
                right = [v - acc.get(k, 0) for k, v in enumerate(left, y * width)]
                ys = tuple(labels[y // d**j % d] for j in reversed(range(len(slots))))
                kept[ys] = (right, left) if swap else (left, right)
            entry = memo[key] = len(bad), kept
        failures, first = entry
        if failures:
            col.fail_first(failures, list(first), lambda ys: [side(g, half) for half in first[ys]], head)


def _primitive(lead, delta, *tables):
    """(g, key): integer tables (scale, {column: {row: numerator}}) as g times the primitive ones that ``key`` lists.

    ``key`` is ``lead`` followed by every nonzero (table index, column, row,
    numerator over ``delta``) in sorted order, the numerators divided by their
    gcd and signed so that the first is positive; inputs equal up to a scalar
    share one key.
    """
    cells = [(t, c, r, v * (delta // s)) for t, (s, m) in enumerate(tables) for c, vs in m.items() for r, v in vs.items()]
    cells = sorted(cell for cell in cells if cell[3])
    g = math.gcd(*[cell[3] for cell in cells]) or 1
    if cells and cells[0][3] < 0:
        g = -g
    return g, (lead, *([(t, c, r, v // g) for t, c, r, v in cells] if g != 1 else cells))


class _Expansion(dict):
    """The pick expansion of keys over per-slot pools: ``self[q]`` lists the picks of q[:0], q[:1], .., q.

    ``pools[i]`` maps a slot-i coordinate to its {part: coefficient} (:func:`_preimages`); a pick of q
    adds one part per coordinate to ``zero`` and multiplies their coefficients, in slot order.  A key is
    expanded on its first lookup, so keys that share a prefix share its picks.  The memo is the dict
    itself, which refers to nothing that refers back to it: it is freed as soon as its pass drops it.
    """

    def __init__(self, pools, zero):
        super().__init__({(): [[(zero, 1)]]})
        self.pools = pools

    def __missing__(self, q):
        head = self[q[:-1]]
        pool = self.pools[len(q) - 1].get(q[-1], {}).items()
        picks = self[q] = head + [[(k + part, c * cp) for k, c in head[-1] for part, cp in pool]]
        return picks


def _leibniz_kernel(tensor, outputs, space, before, after):
    """The one twisted-Leibniz scatter, over the support of an integer tensor T with ``len(after)`` slots.

    At every cell y it sums O(T(y)) and, over the slots i, the terms
    (-1)^(|f| (p(y_1) + .. + p(y_{i-1}))) T(S_1 y_1, .., S_{i-1} y_{i-1}, f_i(y_i), S'_{i+1} y_{i+1}, .., S'_n y_n);
    negated f_i give the left side minus the right.  ``tensor`` is T's integer table (sigma, {support key:
    {output: numerator}}) over ``outputs`` (w of them); ``before[j]``, ``after[j]`` are the even spectators
    S_j, S'_j as integer tables, None for the identity, put over one denominator tau here, so every term is
    over ``scale`` = sigma tau^(n-1) times the maps'.  A cell reached from a support key has the key's
    parities, so slot i's Koszul sign is read off the key's own prefix.  A cell is its index c in basis order.

    One pass over the support, with the spectator picks of every prefix and suffix expanded once
    (:class:`_Expansion`, on integer cell offsets; suffixes as reversed keys, since offsets commute), builds
    ``index[i][e]``: for the out slot i = 0, (T at output e,) as {c w: tau^(n-1) numerator}; for i >= 1,
    (even, odd): T_i = T∘(S_1, .., S_{i-1}, ., S'_{i+1}, .., S'_n) at y_i = e as {c w + output position:
    numerator}, slot i's digit of c zero, split by the parity of y_1 .. y_{i-1}.  Returns ``scatter(out_cols,
    slot_rows, odd, cell=None) -> (acc, lhs)`` with ``index``, ``space``, ``outputs`` and ``scale`` as
    attributes.  A slot's map lists, per coordinate e that T sees, its (cell coordinate b, numerator, tag)
    triples: O by its columns (b an output, stride 1), the f_i by their rows (b = y_i, stride d^(n-i) w);
    ``odd`` is |f|.  One loop adds every term, slot 0 first, into the flat dict ``acc`` at tag d^n w + c w +
    output position; ``lhs`` is ``acc`` after slot 0.  ``cell`` (a label tuple) reads only the keys landing there.
    """
    n, width, d = len(after), len(outputs), space.dim
    sigma, terms = tensor
    tau, aligned = _common([m for m in (*before, *after) if m is not None])
    aligned, identity = iter(aligned), {l: {l: tau} for l in space.labels}
    before, after = [[identity if m is None else next(aligned) for m in maps] for maps in (before, after)]
    at, parity = {l: k for k, l in enumerate(space.labels)}, dict(zip(space.labels, space.parities))
    strides = [d ** (n - 1 - i) * width for i in range(n)]
    offsets = [{e: k for k, e in enumerate(outputs)}] + [{l: at[l] * s for l in space.labels} for s in strides]
    pool = lambda cols, i: _preimages({offsets[i + 1][c]: image for c, image in cols.items()})
    prefixes = _Expansion([pool(before[i], i) for i in range(n - 1)], 0)
    suffixes = _Expansion([pool(after[i], i) for i in reversed(range(1, n))], 0)  # on p[:0:-1]

    lift, block = tau ** (n - 1), d ** n * width
    merged = [defaultdict(lambda: ({},))] + [defaultdict(lambda: ({}, {})) for _ in range(n)]
    for p, value in terms.items():
        base, y, odd = [(offsets[0][e], c) for e, c in value.items()], 0, 0
        for e, lp, rp, slot in zip(p, prefixes[p[:-1]], reversed(suffixes[p[:0:-1]]), merged[1:]):
            target, y, odd = slot[e][odd], y * d + at[e], odd ^ parity[e]
            for lk, lc in lp:
                for rk, rc in rp:
                    for pos, c in base:
                        k = lk + rk + pos
                        target[k] = target.get(k, 0) + lc * rc * c
        for e, c in value.items():
            merged[0][e][0][y * width] = c * lift
    index = [{e: tuple({k: v for k, v in side.items() if v} for side in sides) for e, sides in m.items()} for m in merged]

    def scatter(out_cols, slot_rows, odd, cell=None):
        acc, lhs = {}, None
        get = acc.get
        if cell is not None:
            y0 = sum(at[l] * s for l, s in zip(cell, strides))
        for maps, entries, offset in zip((out_cols, *slot_rows), index, offsets):
            for e, image in maps.items():
                sides = entries.get(e, ())
                for b, ce, tag in image:
                    shift = offset[b]
                    near = None if cell is None else range(y0 - shift, y0 - shift + width)  # keys landing in the cell
                    shift += tag * block
                    for f, pairs in zip((ce, -ce if odd else ce), sides):
                        for k, v in pairs.items() if near is None else [(k, pairs[k]) for k in near if k in pairs]:
                            k += shift
                            acc[k] = get(k, 0) + f * v
            if lhs is None:
                lhs = dict(acc)
        return acc, lhs

    vars(scatter).update(index=index, space=space, outputs=outputs, scale=sigma * lift)
    return scatter


def _compose(table, out_map=None, slot_maps=None):
    """The integer table of O∘T∘(M_1⊗..⊗M_n), scattered over the support of T.

    A table is (scale, cells), like :attr:`NaryBracket.table`: cells map
    argument tuples to {output: integer numerator}, the value at a cell is
    its numerators over the scale, and no cell holds a zero.  T is ``table``
    and so is the result.  O is ``out_map``; M_i is ``slot_maps[i]``, a map
    or an inner table (operadic composition: its arguments take slot i's
    place in the result).  ``None`` is the identity.  The result's scale is
    the product of the scales of T, O and the M_i, as a Leibniz kernel
    side's sigma tau^(n-1) delta is.  The value at x sums prod_i <y_i | M_i x_i> O(T(y))
    over the support keys y, with no Koszul sign: the maps and inner tables
    must be even, or T unary.  Each key's picks x come from :class:`_Expansion`
    on argument-tuple parts, so keys that share a prefix share its picks.
    """
    scale, cells = table
    n = len(next(iter(cells))) if cells else 0
    pools = []  # pools[i][y_i] = {u: coeff}: the argument tuples u that M_i sends onto y_i
    for i, m in enumerate(slot_maps or [None] * n):
        s, cols = (1, {(y[i],): {y[i]: 1} for y in cells}) if m is None else m if isinstance(m, tuple) else _unary(m)
        scale *= s
        pools.append(_preimages(cols))
    if out_map is not None:
        s, out = out_map.integer_columns
        scale *= s
    expand = _Expansion(pools, ())
    result: dict[tuple, dict] = {}
    for y, value in cells.items():
        image = value.items() if out_map is None else [
            (r, v * cr) for l, v in value.items() for r, cr in out.get(l, {}).items()
        ]
        for xs, c in expand[y][-1]:
            cell = result.setdefault(xs, {})
            for r, v in image:
                cell[r] = cell.get(r, 0) + c * v
    return scale, _nonzero(result)


def _unary(m) -> tuple[int, dict]:
    """A linear map as the 1-ary integer table (c,) -> m(c)."""
    scale, cols = m.integer_columns
    return scale, {(c,): image for c, image in cols.items()}


def _permute(table, order, space, sign=1):
    """The table x -> sign * koszul_sign(|x|, order) * table[x_order], x_order = (x[order[k] - 1])_k.

    Only signs change; the scale is kept.
    """
    where = [order.index(k) for k in range(1, len(order) + 1)]
    parity = dict(zip(space.labels, space.parities))
    scale, cells = table
    out = {}
    for y, value in cells.items():
        x = tuple(y[w] for w in where)
        out[x] = value if sign * koszul_sign([parity[a] for a in x], order) == 1 else _negated(value)
    return scale, out


def _differs(left, right) -> list:
    """The cells where two integer tables differ, compared over their common scale."""
    _, (cl, cr) = _common([left, right])
    return [x for x in cl.keys() | cr.keys() if cl.get(x) != cr.get(x)]


def _common(tables) -> tuple[int, list]:
    """(scale, [cells, ..]): the cells of integer tables over the least common multiple of their scales."""
    scale = math.lcm(1, *(s for s, _ in tables))
    return scale, [
        cells if s == scale else {x: {r: v * (scale // s) for r, v in cell.items()} for x, cell in cells.items()}
        for s, cells in tables
    ]


def _negated(cell) -> dict:
    return {r: -v for r, v in cell.items()}


def _shared_twist(alg: HomSuperAlgebra) -> GradedLinearMap:
    alpha = alg.twists[0]
    if any(t != alpha for t in alg.twists[1:]):
        raise ValueError("operation requires a single shared twist")
    return alpha


def _preimages(cols) -> dict:
    """pre[r] = {c: coeff} for every entry r: coeff of column c."""
    pre: dict[str, dict] = {}
    for c, image in cols.items():
        for r, coeff in image.items():
            pre.setdefault(r, {})[c] = coeff
    return pre


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
    columns = {l: eval_bracket(alg, elems + [space.basis_element(l)]) for l in space.labels}
    return GradedLinearMap(space, parity, columns)
