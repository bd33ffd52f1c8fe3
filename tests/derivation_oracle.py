"""Brute-force oracles for the derivation solver and the Leibniz-rule checkers.

Builds the constraint system the direct way: one dense ``Fraction`` row per
(basis tuple, output coordinate), every Leibniz term evaluated with the
generic multilinear evaluator, then reduces it with plain Gauss-Jordan
elimination over ``Fraction``.  Nothing is deduplicated or scaled, so the
rows keep the raw rational coefficients of the defining equations.
:func:`solve_oracle` returns the canonical nullspace vectors that
:func:`homnambu.derivations.solve_derivation_space` must reproduce exactly.

:func:`constraints_per_unit` is the row assembly the solver ran before it
tagged its unknowns: one kernel scatter per matrix unit, each residual
copied into the rows of a dense accumulator, every distinct row reduced with
the rational :func:`homnambu.linalg.primitive_row`.  Its rows span the row
space of the defining equations, which is all the solver's rows must match.
:func:`constraints_staged` runs the solver's two stages the slow way: the
commuting maps from ``dense_rref`` of the per-unit commutation rows, one
Leibniz scatter per commuting basis map, each row lifted onto the free
columns.  :func:`homnambu.derivations.derivation_constraints`, which
scatters every basis map in one pass on an integer common denominator,
must give the same set of rows over the same variables.

The report oracles below are the per-checker loops that the derivation,
quasi-derivation, generalized-derivation and adjoint-expansion checks and
the phi-annihilation hypothesis of ``derivation_transfer`` ran before they
shared one kernel.  Each writes its Leibniz sum out with the sign
(-1)^(|f_i| (p_1 + .. + p_{i-1})) computed from the prefix, and the adjoint
expansion evaluates the nested bracket by the recursion of
``iterated_oracle`` rather than from the nested tensor.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from homnambu import linalg
from homnambu.axioms import (
    CheckReport,
    Counterexample,
    _leibniz_kernel,
)
from homnambu.core import Element, HomSuperAlgebra, eval_bracket, map_power
from homnambu.derivations import derivation_variables
from iterated_oracle import iterated_eval

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


def _kernels(alg: HomSuperAlgebra, k: int):
    """(kernel, arity) for the 1-ary tensor alpha, then for the bracket with spectator alpha^k.

    Each kernel takes its tensor and spectators as integer tables and keeps their
    denominators, so one map's two sides come out over one denominator.
    """
    alpha = alg.twists[0]
    space = alg.space
    labels = space.labels
    n = alg.arity
    scale, twist = alpha.integer_columns
    spec = map_power(alpha, k).integer_columns
    return (
        (_leibniz_kernel((scale, {(c,): twist.get(c, {}) for c in labels}), labels, space, [], [None]), 1),
        (_leibniz_kernel(alg.bracket.table, labels, space, [spec] * n, [spec] * n), n),
    )


def _residual_rows(kernel, arity, maps, variables, parity):
    """Distinct rows over ``maps``, one scatter per map: entry j of the row of (x, rho) is
    the residual (left minus right side) of maps[j], a vector over ``variables``, there."""
    acc = defaultdict(([0] * len(maps)).copy)  # (x, rho) -> row, keyed x's index * width + rho
    for j, vec in enumerate(maps):
        table = defaultdict(dict)  # the map as {column: {row: entry}}: the out map and every slot map
        for (r, c), v in zip(variables, vec):
            if v:
                table[c][r] = v
        for key, residual in kernel([(table, [table] * arity)], parity)[0].items():
            if residual:
                acc[key][j] = residual
    return list(dict.fromkeys(map(tuple, acc.values())))


def constraints_per_unit(alg: HomSuperAlgebra, k: int, parity: int):
    """(rows, variables): the distinct primitive rows, one scatter per matrix unit and kernel.

    The residual of the unit E_{r,c} at (x, rho) is the entry of that
    unknown in the row of (x, rho); the commutation rows come from the 1-ary
    tensor alpha, the Leibniz rows from the bracket with spectator alpha^k.
    """
    variables = derivation_variables(alg.space, parity)
    units = [[int(i == j) for i in range(len(variables))] for j in range(len(variables))]
    rows = {}
    for kernel, arity in _kernels(alg, k):
        for row in _residual_rows(kernel, arity, units, variables, parity):
            rows[linalg.primitive_row(row)] = None
    return [list(row) for row in rows], variables


def constraints_staged(alg: HomSuperAlgebra, k: int, parity: int):
    """(rows, variables): the commutation rows C of :func:`constraints_per_unit`, then the
    Leibniz rows on the maps that commute, lifted onto the free columns of C.

    ``dense_rref`` of C gives the free columns f_j and the nullspace basis
    N_j (N_j[f_j] = 1, zero at the other free columns); the bracket's kernel
    is scattered once per N_j, with its rational entries, and each distinct
    primitive residual row u over the N_j becomes the row with u_j at f_j.
    """
    variables = derivation_variables(alg.space, parity)
    m = len(variables)
    units = [[int(i == j) for i in range(m)] for j in range(m)]
    (twist, _), (bracket, n) = _kernels(alg, k)
    rows = dict.fromkeys(map(linalg.primitive_row, _residual_rows(twist, 1, units, variables, parity)))
    pivots = dense_rref(list(rows))[1] if rows else []
    free = [c for c in range(m) if c not in pivots]
    basis = dense_nullspace(list(rows), m)
    for u in dict.fromkeys(map(linalg.primitive_row, _residual_rows(bracket, n, basis, variables, parity))):
        row = [0] * m
        for f, uj in zip(free, u):
            row[f] = uj
        rows[tuple(row)] = None
    return [list(row) for row in rows], variables


def row_space(rows):
    """The nonzero rows of the reduced row echelon form: equal exactly for equal row spaces."""
    return [row for row in dense_rref(rows)[0] if any(row)] if rows else []


def _report(identity, cells, cap):
    """A report from (args, lhs, rhs, note) cells in checking order."""
    failing = [Counterexample(tuple(args), lhs, rhs, note) for args, lhs, rhs, note in cells if lhs != rhs]
    return CheckReport(identity, not failing, tuple(failing[:cap]), len(failing), len(cells))


def _leibniz(evaluate, space, args, slot_maps, spectator):
    """sum_i (-1)^(|f_i| (p_1 + .. + p_{i-1})) F(S x_1, .., f_i(x_i), .., S x_n)."""
    total = Element()
    for i, f in enumerate(slot_maps):
        term_args = [spectator.apply_basis(a) for a in args]
        term_args[i] = f.apply_basis(args[i])
        exponent = f.parity * sum(space.parity(a) for a in args[:i])
        total = total + evaluate(term_args).scale((-1) ** exponent)
    return total


def _leibniz_cells(alg, out_map, slot_maps, spectator, flip=False):
    bracket = lambda elems: eval_bracket(alg, elems)
    cells = []
    for args in alg.space.tuples(alg.arity):
        lhs = out_map.apply(alg.bracket.value(args))
        rhs = _leibniz(bracket, alg.space, args, slot_maps, spectator)
        cells.append((args, rhs, lhs, "") if flip else (args, lhs, rhs, ""))
    return cells


def derivation_report(cand, alg, cap, spectator=None):
    """Twist commutation on every basis vector, then the Leibniz rule."""
    alpha = alg.twists[0]
    d = cand.map
    spectator = map_power(alpha, cand.power) if spectator is None else spectator
    cells = [
        ((l,), d.apply(alpha.apply_basis(l)), alpha.apply(d.apply_basis(l)), "twist commutation")
        for l in alg.space.labels
    ]
    cells += _leibniz_cells(alg, d, (d,) * alg.arity, spectator)
    return _report(f"derivation(power={cand.power})", cells, cap)


def quasi_derivation_report(pair, alg, cap):
    """The Leibniz sum of d (the left side) against dprime of the bracket."""
    spectator = map_power(alg.twists[0], pair.power)
    cells = _leibniz_cells(alg, pair.dprime, (pair.d,) * alg.arity, spectator, flip=True)
    return _report(f"quasi-derivation(power={pair.power})", cells, cap)


def generalized_derivation_report(tup, alg, cap, spectator=None):
    n = alg.arity
    if spectator is None:
        spectator = map_power(alg.twists[0], tup.power)
    cells = _leibniz_cells(alg, tup.maps[n], tup.maps[:n], spectator)
    return _report(f"generalized-derivation(power={tup.power})", cells, cap)


def adjoint_expansion_report(alg, n, cap, x=None, ys=None):
    """[a^(n-1)(x), [y_1..y_n]] against sum_k (-1)^(|x| |Y|^{k-1}) [a(y_1), .., [x, y_k], .., a(y_n)].

    An explicit ``x`` or ``ys`` restricts the cells to it.
    """
    space = alg.space
    alpha = alg.twist
    power = map_power(alpha, n - 1)
    nested = lambda elems: iterated_eval(alg, elems, n)
    cells = []
    for xv in space.labels if x is None else [x]:
        ex = space.basis_element(xv)
        for yt in space.tuples(n) if ys is None else [tuple(ys)]:
            value = nested([space.basis_element(y) for y in yt])
            lhs = eval_bracket(alg, [power.apply_basis(xv), value])
            rhs = Element()
            for k in range(n):
                term_args = [alpha.apply_basis(y) for y in yt]
                term_args[k] = eval_bracket(alg, [ex, space.basis_element(yt[k])])
                exponent = space.parity(xv) * sum(space.parity(y) for y in yt[:k])
                rhs = rhs + nested(term_args).scale((-1) ** exponent)
            cells.append(((xv,) + yt, lhs, rhs, ""))
    return _report(f"adjoint-expansion(n={n})", cells, cap)


def phi_annihilation_report(d, phi, cap):
    """sum_i (-1)^(|D| (p_1 + .. + p_{i-1})) phi(x_1, .., D x_i, .., x_m) = 0 on every basis tuple."""
    space = phi.space
    cells = []
    for args in space.tuples(phi.degree):
        total = ZERO
        for i in range(phi.degree):
            term_args = [space.basis_element(a) for a in args]
            term_args[i] = d.apply_basis(args[i])
            exponent = d.parity * sum(space.parity(a) for a in args[:i])
            total += (-1) ** exponent * phi.eval(term_args)
        cells.append((args, total, ZERO, ""))
    return _report("phi-annihilation", cells, cap)
