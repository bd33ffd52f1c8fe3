"""Exact linear algebra over the rationals.

Small hand-rolled routines: the unknowns are endomorphism entries of spaces
of dimension at most 5, and keeping the elimination in-tree pins down the
canonical form the solver modules promise (reduced row echelon, nullspace
vectors with one free variable set to 1, deterministic order).

``rref`` streams its input: each row is cleared of denominators and reduced
in integers against the pivot rows found so far (at most one per column), so
a tall system with many redundant rows costs one pass over its rows.  The
surviving rows are back-substituted and divided by their pivots at the end.
The reduced row echelon form of a row space is unique, so the result does not
depend on the order or the scaling of the input rows.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .core import GradedLinearMap, ZERO, ONE

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Entries may be ints or Fractions.  The result has one row per input row:
    the pivot rows in column order, then zero rows.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    echelon: dict[int, tuple[int, ...]] = {}  # pivot column -> integer row
    order: list[int] = []  # pivot columns, ascending
    for row in rows:
        if len(order) == ncols:
            break
        vec = primitive_row(row)
        if vec is None:
            continue
        # eliminate the pivot columns in ascending order; each pivot row is
        # zero left of its pivot, so earlier columns stay cleared
        for c in order:
            if vec[c]:
                vec = _eliminate(vec, echelon[c], c)
        vec = primitive_ints(vec)
        if vec is None:
            continue
        lead = next(c for c, v in enumerate(vec) if v)
        echelon[lead] = vec
        bisect.insort(order, lead)
    # back substitution, last pivot first, then one division per entry
    for k in range(len(order) - 1, -1, -1):
        vec = echelon[order[k]]
        for c in order[k + 1 :]:
            if vec[c]:
                vec = _eliminate(vec, echelon[c], c)
        echelon[order[k]] = vec
    reduced = []
    for c in order:
        vec = echelon[c]
        reduced.append([Fraction(v, vec[c]) for v in vec])
    reduced.extend([ZERO] * ncols for _ in range(nrows - len(order)))
    return reduced, order


def primitive_row(row) -> tuple[int, ...] | None:
    """The integer multiple of a rational row whose entries have gcd 1 and
    whose first nonzero entry is positive; None for a zero row."""
    den = math.lcm(*(v.denominator for v in row))
    return primitive_ints([v.numerator * (den // v.denominator) for v in row])


def primitive_ints(vec) -> tuple[int, ...] | None:
    """:func:`primitive_row` of an integer row, with one gcd and no denominators."""
    g = math.gcd(*vec)
    if not g:
        return None
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _eliminate(vec, piv, c: int) -> list[int]:
    """Clear column c of ``vec`` with the pivot row ``piv`` (piv[c] > 0).

    vec is scaled by a positive factor, so its leading sign is kept; the
    result is divided by the gcd of its entries to keep them small.
    """
    g = math.gcd(vec[c], piv[c])
    a, b = piv[c] // g, vec[c] // g
    out = [a * v - b * w for v, w in zip(vec, piv)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of the homogeneous system ``rows @ x = 0``.

    One vector per free column, that free variable set to 1 and the pivot
    variables read off the reduced form; returned in free-column order.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def invert_map(f: GradedLinearMap) -> GradedLinearMap:
    """Exact inverse of a linear map; raises ValueError when singular."""
    space = f.space
    d = space.dim
    m = f.matrix()
    aug = [list(m[i]) + [ONE if j == i else ZERO for j in range(d)] for i in range(d)]
    reduced, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ValueError("map is singular")
    inv_rows = [reduced[i][d:] for i in range(d)]
    return GradedLinearMap.from_matrix(space, inv_rows, parity=f.parity)


def is_invertible(f: GradedLinearMap) -> bool:
    return rank(f.matrix()) == f.space.dim
