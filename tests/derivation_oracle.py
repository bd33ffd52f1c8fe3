"""Brute-force oracle for the exact derivation solver.

Builds the constraint system the direct way: one dense ``Fraction`` row per
(basis tuple, output coordinate), every Leibniz term evaluated with the
generic multilinear evaluator, then reduces it with plain Gauss-Jordan
elimination over ``Fraction``.  Nothing is deduplicated or scaled, so the
rows keep the raw rational coefficients of the defining equations.
:func:`solve_oracle` returns the canonical nullspace vectors that
:func:`homnambu.derivations.solve_derivation_space` must reproduce exactly.
"""

from __future__ import annotations

from fractions import Fraction

from homnambu.core import Element, HomSuperAlgebra, eval_bracket, map_power
from homnambu.derivations import derivation_variables

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_rref(rows):
    """Gauss-Jordan elimination over Fraction; all rows kept, zero rows last."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    """One vector per free column (set to 1), in free-column order."""
    reduced, pivots = dense_rref(rows) if rows else ([], [])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def dense_constraints(alg: HomSuperAlgebra, k: int, parity: int):
    """Commutation rows, then one Leibniz row per basis tuple and coordinate."""
    alpha = alg.twists[0]
    space = alg.space
    variables = derivation_variables(space, parity)
    var_index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    spectator = map_power(alpha, k)
    spec_cols = {l: spectator.apply_basis(l) for l in space.labels}
    rows = []

    # D(alpha(c)) = alpha(D(c)), coordinate by coordinate
    for c in space.labels:
        alpha_c = alpha.apply_basis(c)
        for rho in space.labels:
            row = [ZERO] * nvars
            for w, coeff in alpha_c.coeffs.items():
                idx = var_index.get((rho, w))
                if idx is not None:
                    row[idx] += coeff
            for r in space.labels:
                idx = var_index.get((r, c))
                if idx is not None:
                    row[idx] -= alpha.apply_basis(r).coeffs.get(rho, ZERO)
            if any(row):
                rows.append(row)

    # Leibniz rule on every basis tuple, coordinate by coordinate
    n = alg.arity
    for args in space.tuples(n):
        bracket_value = alg.bracket.value(args)
        contributions: dict[tuple[str, str], Element] = {}
        for b, coeff in bracket_value.coeffs.items():
            for r in space.labels:
                if var_index.get((r, b)) is not None:
                    cur = contributions.get((r, b), Element())
                    contributions[(r, b)] = cur + space.basis_element(r).scale(coeff)
        running = 0
        for i in range(n):
            if i > 0:
                running = (running + space.parity(args[i - 1])) % 2
            sign = -1 if parity and running else 1
            for r in space.labels:
                if var_index.get((r, args[i])) is None:
                    continue
                term_args = [spec_cols[a] for a in args]
                term_args[i] = space.basis_element(r)
                image = eval_bracket(alg, term_args).scale(-sign)
                if not image.is_zero():
                    cur = contributions.get((r, args[i]), Element())
                    contributions[(r, args[i])] = cur + image
        if not contributions:
            continue
        for rho in space.labels:
            row = [ZERO] * nvars
            touched = False
            for (r, c), image in contributions.items():
                coeff = image.coeffs.get(rho)
                if coeff:
                    row[var_index[(r, c)]] += coeff
                    touched = True
            if touched:
                rows.append(row)
    return rows, variables


def solve_oracle(alg: HomSuperAlgebra, k: int, parity: int) -> list[list[Fraction]]:
    """Nullspace vectors over ``derivation_variables(space, parity)``."""
    rows, variables = dense_constraints(alg, k, parity)
    return dense_nullspace(rows, len(variables))
