"""Brute-force oracle for the ternary pre-Lie identities.

The hand-written loops that :mod:`homnambu.prelie` ran before its identities
became signed-term tables, kept verbatim: first-pair skew symmetry, the
cyclic supercommutator, the two five-argument axioms and the two derived
identities, each sign written out as its own parity expression.  The tests
compare their reports with the table-driven checkers at several caps.
"""

from __future__ import annotations

from homnambu.axioms import (
    CheckReport,
    _Collector,
    DEFAULT_COUNTEREXAMPLE_CAP,
    merge_reports,
)
from homnambu.core import Element, NaryBracket, eval_tensor
from homnambu.prelie import TriProduct


def _eval(t: TriProduct, args: list[Element]) -> Element:
    """The ternary product extended multilinearly to elements."""
    return eval_tensor(t.product, t.space, args)


def _swap01(args):
    return (args[1], args[0], args[2])


def _pair_sign(space, args):
    return 1 if space.parity(args[0]) * space.parity(args[1]) else -1


def check_first_pair_skew(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Axiom (1): skew symmetry in the first two slots."""
    col = _Collector("pre-lie-first-pair-skew", cap)
    space = t.space
    for args in space.tuples(3):
        col.tick()
        lhs = t.value(args)
        rhs = t.value(_swap01(args)).scale(_pair_sign(space, args))
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def _cyclic_tensor(t: TriProduct) -> NaryBracket:
    space = t.space
    entries = {}
    for args in space.tuples(3):
        x, y, z = args
        px, py, pz = (space.parity(a) for a in args)
        total = t.value((x, y, z))
        s1 = -1 if px * ((py + pz) % 2) else 1
        s2 = -1 if pz * ((px + py) % 2) else 1
        total = total + t.value((y, z, x)).scale(s1) + t.value((z, x, y)).scale(s2)
        if not total.is_zero():
            entries[args] = total
    return NaryBracket(3, entries)


def check_3_pre_lie(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """All three axioms, the five-argument ones over every basis 5-tuple."""
    skew = check_first_pair_skew(t, cap)
    space = t.space
    cyc = _cyclic_tensor(t)
    alpha_cols = {l: t.twist.apply_basis(l) for l in space.labels}
    base = {l: space.basis_element(l) for l in space.labels}

    col2 = _Collector("pre-lie-nesting", cap)
    col3 = _Collector("pre-lie-cyclic-nesting", cap)
    for args in space.tuples(5):
        x1, x2, x3, x4, x5 = args
        p = [space.parity(a) for a in args]
        c123 = cyc.value((x1, x2, x3))
        c124 = cyc.value((x1, x2, x4))

        col2.tick()
        lhs2 = _eval(t, [alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        rhs2 = _eval(t, [c123, alpha_cols[x4], alpha_cols[x5]])
        term = _eval(t, [alpha_cols[x3], c124, alpha_cols[x5]])
        if p[2] * ((p[0] + p[1]) % 2):
            term = term.scale(-1)
        rhs2 = rhs2 + term
        term = _eval(t, [alpha_cols[x3], alpha_cols[x4], t.value((x1, x2, x5))])
        if ((p[0] + p[1]) % 2) * ((p[2] + p[3]) % 2):
            term = term.scale(-1)
        rhs2 = rhs2 + term
        if lhs2 != rhs2:
            col2.fail(args, lhs2, rhs2)

        col3.tick()
        lhs3 = _eval(t, [c123, alpha_cols[x4], alpha_cols[x5]])
        rhs3 = _eval(t, [alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        term = _eval(t, [alpha_cols[x2], alpha_cols[x3], t.value((x1, x4, x5))])
        if p[0] * ((p[1] + p[2]) % 2):
            term = term.scale(-1)
        rhs3 = rhs3 + term
        term = _eval(t, [alpha_cols[x3], alpha_cols[x1], t.value((x2, x4, x5))])
        if p[2] * ((p[0] + p[1]) % 2):
            term = term.scale(-1)
        rhs3 = rhs3 + term
        if lhs3 != rhs3:
            col3.fail(args, lhs3, rhs3)
    return merge_reports("3-pre-lie", skew, col2.report(), col3.report())


def check_derived_identities(t: TriProduct, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Two five-argument consequences that every verified product satisfies."""
    space = t.space
    cyc = _cyclic_tensor(t)
    alpha_cols = {l: t.twist.apply_basis(l) for l in space.labels}

    col_a = _Collector("derived-alternating", cap)
    col_b = _Collector("derived-symmetrized", cap)
    for args in space.tuples(5):
        x1, x2, x3, x4, x5 = args
        p = [space.parity(a) for a in args]

        col_a.tick()
        total = _eval(t, [cyc.value((x1, x2, x3)), alpha_cols[x4], alpha_cols[x5]])
        term = _eval(t, [cyc.value((x1, x2, x4)), alpha_cols[x3], alpha_cols[x5]])
        total = total - term.scale(1 if not p[2] * p[3] else -1)
        term = _eval(t, [cyc.value((x1, x3, x4)), alpha_cols[x2], alpha_cols[x5]])
        total = total + term.scale(-1 if p[1] * ((p[2] + p[3]) % 2) else 1)
        term = _eval(t, [cyc.value((x2, x3, x4)), alpha_cols[x1], alpha_cols[x5]])
        total = total - term.scale(-1 if p[0] * ((p[1] + p[2] + p[3]) % 2) else 1)
        if not total.is_zero():
            col_a.fail(args, total, Element())

        col_b.tick()
        total = _eval(t, [alpha_cols[x1], alpha_cols[x2], t.value((x3, x4, x5))])
        term = _eval(t, [alpha_cols[x3], alpha_cols[x4], t.value((x1, x2, x5))])
        total = total + term.scale(-1 if ((p[0] + p[1]) % 2) * ((p[2] + p[3]) % 2) else 1)
        term = _eval(t, [alpha_cols[x2], alpha_cols[x4], t.value((x3, x1, x5))])
        exp = p[0] * ((p[1] + p[2] + p[3]) % 2) + p[2] * p[3]
        total = total + term.scale(-1 if exp % 2 else 1)
        term = _eval(t, [alpha_cols[x3], alpha_cols[x1], t.value((x2, x4, x5))])
        total = total + term.scale(-1 if p[2] * ((p[0] + p[1]) % 2) else 1)
        term = _eval(t, [alpha_cols[x2], alpha_cols[x3], t.value((x1, x4, x5))])
        total = total + term.scale(-1 if p[0] * ((p[1] + p[2]) % 2) else 1)
        term = _eval(t, [alpha_cols[x1], alpha_cols[x4], t.value((x2, x3, x5))])
        total = total + term.scale(-1 if p[3] * ((p[1] + p[2]) % 2) else 1)
        if not total.is_zero():
            col_b.fail(args, total, Element())
    return merge_reports("derived-identities", col_a.report(), col_b.report())
