"""Tuple-loop oracles for the constructions on the sparse table algebra.

These are the dense sweeps over ``space.tuples(k)`` that super-skew
symmetry, the Hom-Jacobi identity, the cochain-induced and nested brackets
and the Rota-Baxter kernel condition ran before they became compositions,
Koszul-signed permutations and sums of sparse tables
(:func:`homnambu.axioms._compose`, ``_permute`` and ``_sum_tables``).  Each
evaluates every basis tuple in basis order with ``Element`` arithmetic and
writes its own signs; the tests compare them with the library entry by entry
and report by report.

The table algebra itself ran on ``{cell: Element}`` tables with ``Fraction``
coefficients before it moved to integer numerators over one scale; that
form of ``_compose``, ``_permute`` and ``_sum_tables`` is kept below, with
the helpers it used and its cell-by-cell ``diff_report``, as the oracle for
the integer form.  So is the skew-orbit completion on ``Element``,
``Fraction`` and mapping values that :func:`homnambu.core.complete_skew_orbit`
replaced with one on integer tables.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from homnambu.axioms import CheckReport, _Collector, DEFAULT_COUNTEREXAMPLE_CAP
from homnambu.cochains import SuperCochain
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OrbitConflict,
    SuperSpace,
    adjacent_transposition_sign,
    eval_bracket,
    koszul_sign,
    map_power,
    multiplicative_algebra,
)
from cochain_oracle import pair_extractions


def _parity_tuple(alg: HomSuperAlgebra, args) -> tuple[int, ...]:
    return tuple(alg.space.parity(a) for a in args)


def check_super_skew(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Adjacent-transposition skew symmetry over all basis tuples and positions."""
    col = _Collector("super-skew", cap)
    n = alg.arity
    space = alg.space
    for args in space.tuples(n):
        col.tick()
        parities = _parity_tuple(alg, args)
        lhs = alg.bracket.value(args)
        for i in range(1, n):
            swapped = args[: i - 1] + (args[i], args[i - 1]) + args[i + 1 :]
            sign = adjacent_transposition_sign(parities, i)
            rhs = alg.bracket.value(swapped).scale(sign)
            if lhs != rhs:
                col.fail(args, lhs, rhs, note=f"swap at {i}")
    return col.report()


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


def iterated_bracket(alg: HomSuperAlgebra, n: int) -> HomSuperAlgebra:
    """Build the arity-n nested bracket; returns the algebra with twist a^(n-1)."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    alpha = alg.twist
    space = alg.space
    entries = dict(alg.bracket.entries)
    for m in range(3, n + 1):
        twist_cols = {l: map_power(alpha, m - 2).apply_basis(l) for l in space.labels}
        extended = {}
        for args, value in entries.items():
            for b in space.labels:
                img = twist_cols[b]
                if img.is_zero():
                    continue
                out = eval_bracket(alg, [value, img])
                if not out.is_zero():
                    extended[args + (b,)] = out
        entries = extended
    if n == 2:
        return alg
    return multiplicative_algebra(space, NaryBracket(n, entries), map_power(alpha, n - 1))


def kernel_condition(
    R: GradedLinearMap,
    phi: SuperCochain,
    alg: HomSuperAlgebra,
    n: int,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> CheckReport:
    """The kernel-membership sum of ``check_phi_rb_kernel_condition`` (its first report)."""
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
    return kernel_col.report()


# ---------------------------------------------------------------------------
# The Fraction table algebra, {cell: Element} tables
# ---------------------------------------------------------------------------

def _compose(entries, out_map=None, slot_maps=None):
    """The sparse table of O∘T∘(M_1⊗..⊗M_n), scattered over the support of T.

    ``entries`` maps T's argument tuples to elements, like :attr:`NaryBracket.entries`,
    and so does the result (nonzero values only).  O is ``out_map``; M_i is
    ``slot_maps[i]``, a map or an inner table of the same kind as ``entries``
    (operadic composition: its arguments take slot i's place in the result).
    ``None`` is the identity.  The value at x sums prod_i <y_i | M_i x_i>
    O(T(y)) over the support keys y, with no Koszul sign: the maps and inner
    tables must be even, or T unary.
    """
    keys = list(entries)
    n = len(keys[0]) if keys else 0
    pre = [  # pre[i][y_i] = [(u, coeff)]: the argument tuples u that M_i sends onto y_i
        {y[i]: [((y[i],), 1)] for y in keys} if m is None
        else _preimages({u: e.coeffs.items() for u, e in (m if isinstance(m, dict) else _unary(m)).items()})
        for i, m in enumerate(slot_maps or [None] * n)
    ]
    out = None if out_map is None else {c: image.coeffs for c, image in out_map.columns.items()}
    table: dict[tuple, dict] = {}
    for y, value in entries.items():
        image = value.coeffs.items() if out is None else [
            (r, v * cr) for l, v in value.coeffs.items() for r, cr in out[l].items()
        ]
        picks = [((), 1)]
        for coord, pool in zip(y, pre):
            picks = [(head + u, c * cu) for head, c in picks for u, cu in pool.get(coord, ())]
        for xs, c in picks:
            cell = table.setdefault(xs, {})
            for r, v in image:
                cell[r] = cell.get(r, 0) + c * v
    return {xs: e for xs, cell in table.items() if (e := Element(cell))}


def _unary(m) -> dict:
    """A linear map as the 1-ary table (c,) -> m(c)."""
    return {(c,): image for c, image in m.columns.items()}


def _permute(table, order, space, scale=1):
    """The table x -> scale * koszul_sign(|x|, order) * table[x_order], x_order = (x[order[k] - 1])_k."""
    where = [order.index(k) for k in range(1, len(order) + 1)]
    parity = dict(zip(space.labels, space.parities))
    out = {}
    for y, value in table.items():
        x = tuple(y[w] for w in where)
        sign = scale * koszul_sign([parity[a] for a in x], order)
        out[x] = value if sign == 1 else value.scale(sign)
    return out


def _sum_tables(tables):
    """Add sparse tables cell by cell; zero cells are dropped."""
    total: dict[tuple, dict] = {}
    for table in tables:
        for x, value in table.items():
            cell = total.setdefault(x, {})
            for r, c in value.coeffs.items():
                cell[r] = cell.get(r, 0) + c
    return {x: e for x, cell in total.items() if (e := Element(cell))}


def _preimages(cols) -> dict:
    """pre[r] = [(c, coeff)] for every entry (r, coeff) of column c."""
    pre: dict[str, list] = {}
    for c, image in cols.items():
        for r, coeff in image:
            pre.setdefault(r, []).append((c, coeff))
    return pre


def diff_report(identity, space, n, left, right, cap, note="") -> CheckReport:
    """The cells where two {cell: Element} tables differ, in basis order, out of all d^n basis tuples."""
    col = _Collector(identity, cap)
    col.tick(space.dim ** n)
    for x in sorted(left.keys() | right.keys(), key=space.sort_key):
        if left.get(x) != right.get(x):
            col.fail(x, left.get(x, Element()), right.get(x, Element()), note)
    return col.report()


# ---------------------------------------------------------------------------
# Skew-orbit completion on Element, Fraction and mapping values
# ---------------------------------------------------------------------------

def complete_skew_orbit(
    arity: int,
    generators: Mapping[tuple[str, ...], object],
    space: SuperSpace,
    swaps: Sequence[int] | None = None,
) -> dict:
    """Extend generating values to every index tuple their orbit reaches.

    The orbit is generated by the adjacent transpositions at the 1-based
    positions ``swaps`` (all of 1..arity-1 by default); each carries the
    Koszul skew sign, applied by unary minus, so values may be
    :class:`Element` brackets or ``Fraction`` cochain values (mappings are
    read as elements).  A tuple whose orbit forces v = -v with v nonzero, or
    two generators disagreeing on one orbit, raise :class:`OrbitConflict`.
    Zero values are dropped from the result.
    """
    if swaps is None:
        swaps = range(1, arity)
    table = {}
    worklist = []

    def insert(args, value):
        existing = table.get(args)
        if existing is None:
            table[args] = value
            worklist.append((args, value))
        elif existing != value:
            raise OrbitConflict(args, existing, value)

    for args, value in generators.items():
        insert(tuple(args), Element(value) if isinstance(value, Mapping) else value)
    while worklist:
        args, value = worklist.pop()
        parities = [space.parity(a) for a in args]
        for i in swaps:
            swapped = args[: i - 1] + (args[i], args[i - 1]) + args[i + 1 :]
            insert(swapped, value if adjacent_transposition_sign(parities, i) > 0 else -value)
    return {args: v for args, v in table.items() if v}
