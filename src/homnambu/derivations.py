"""Twisted derivations: checking, solving, inner/quasi/generalized variants.

A power-k derivation candidate D of a multiplicative algebra with twist a must
commute with a and satisfy the graded Leibniz rule in which every spectator
argument is twisted by a^k and moving D past the first i-1 arguments costs
(-1)^(|D| * (p_1 + .. + p_{i-1})).

The solver sets the matrix entries of an unknown parity-homogeneous map as
variables and returns the exact nullspace basis of the commutation and
Leibniz constraints.  One parity class is solved at a time since the Leibniz
sign depends on the parity of the unknown map.  The Leibniz rows are
assembled from the tensor's support rather than from all d^n basis tuples:
each stored entry contributes its left-side terms at its own index tuple and
its right-side terms at the tuples whose spectator images hit it, found
through precomputed preimage lists of a^k.  Denominators are cleared once,
every row is reduced to a primitive integer row, and each distinct row is
kept once, so the elimination sees a few hundred rows where the defining
equations number tens of thousands.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .axioms import (
    CheckReport,
    DEFAULT_COUNTEREXAMPLE_CAP,
    _choices,
    _Collector,
    _common_denominator,
    _twist_commutation,
    adjoint_map,
)
from .core import (
    Element,
    FixedPointViolation,
    GradedLinearMap,
    HomSuperAlgebra,
    eval_bracket,
    map_compose,
    map_power,
    supercommutator_maps,
)
from . import linalg


@dataclass(frozen=True)
class DerivationCandidate:
    map: GradedLinearMap
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be nonnegative")


@dataclass(frozen=True)
class QuasiPair:
    d: GradedLinearMap
    dprime: GradedLinearMap
    power: int

    def __post_init__(self):
        if self.d.parity != self.dprime.parity and not (
            self.d.is_zero() or self.dprime.is_zero()
        ):
            raise ValueError("quasi-pair maps must share a parity")


@dataclass(frozen=True)
class GeneralizedTuple:
    """n maps acting one per argument slot plus one map on the output."""

    maps: tuple[GradedLinearMap, ...]
    power: int

    def __post_init__(self):
        parities = {m.parity for m in self.maps if not m.is_zero()}
        if len(parities) > 1:
            raise ValueError("all maps of a generalized tuple must share a parity")


def _shared_twist(alg: HomSuperAlgebra) -> GradedLinearMap:
    alpha = alg.twists[0]
    if any(t != alpha for t in alg.twists[1:]):
        raise ValueError("operation requires a single shared twist")
    return alpha


def check_derivation(
    cand: DerivationCandidate,
    alg: HomSuperAlgebra,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
    spectator: GradedLinearMap | None = None,
) -> CheckReport:
    """Twist commutation plus the graded Leibniz rule over all basis tuples.

    ``spectator`` overrides the map applied to untouched arguments; by default
    it is the algebra twist raised to ``cand.power``.
    """
    alpha = _shared_twist(alg)
    d = cand.map
    if spectator is None:
        spectator = map_power(alpha, cand.power)
    col = _Collector(f"derivation(power={cand.power})", cap)
    _twist_commutation(col, d, alg)
    for args, lhs, rhs in _leibniz_cells(alg, d, (d,) * alg.arity, spectator):
        col.tick()
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def _leibniz_sum(evaluate, zero, space, args, slot_maps, spec_cols):
    """sum_i (-1)^(|f_i| (p_1 + .. + p_{i-1})) F(S x_1, .., f_i(x_i), .., S x_n).

    The one home of the slot-wise graded Leibniz sum.  ``evaluate`` is the
    multilinear form F, taking a list of elements (a bracket, or a cochain's
    ``eval``), and ``zero`` the zero of its values; ``args`` are basis labels
    with parities in ``space``, ``slot_maps`` holds f_i per slot and
    ``spec_cols`` the columns of the spectator S.
    """
    total = zero
    odd_prefix = 0  # parity of x_1 .. x_{i-1}
    for i, f in enumerate(slot_maps):
        term_args = [spec_cols[a] for a in args]
        term_args[i] = f.apply_basis(args[i])
        term = evaluate(term_args)
        total = total + (-term if f.parity and odd_prefix else term)
        odd_prefix ^= space.parity(args[i])
    return total


def _leibniz_cells(alg, out_map, slot_maps, spectator, cells=None):
    """Yield ``(args, out_map([args]), Leibniz sum at args)`` per basis tuple.

    The one cell loop of the Leibniz-rule family: derivations, quasi- and
    generalized derivations and the adjoint expansion differ only in the
    maps they pass.  ``cells`` defaults to every basis tuple of ``alg`` in
    basis order.
    """
    space = alg.space
    spec_cols = {l: spectator.apply_basis(l) for l in space.labels}
    bracket = partial(eval_bracket, alg)
    for args in space.tuples(alg.arity) if cells is None else cells:
        value = out_map.apply(alg.bracket.value(args))
        yield args, value, _leibniz_sum(bracket, Element(), space, args, slot_maps, spec_cols)


def inner_derivation(alg: HomSuperAlgebra, xs, k: int) -> DerivationCandidate:
    """ad^k on a fixed tuple: y -> [x_1, .., x_{n-1}, a^k(y)], a power-(k+1) derivation.

    The defining tuple must be fixed pointwise by the twist; anything else
    raises :class:`FixedPointViolation` rather than silently generalizing.
    """
    alpha = _shared_twist(alg)
    for x in xs:
        e = alg.space.basis_element(x) if isinstance(x, str) else x
        if alpha.apply(e) != e:
            raise FixedPointViolation(f"twist does not fix {e!r}")
    return DerivationCandidate(map_compose(adjoint_map(alg, xs), map_power(alpha, k)), k + 1)


def check_quasi_derivation(
    pair: QuasiPair, alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP
) -> CheckReport:
    """Leibniz sum of d absorbed by dprime applied to the whole bracket."""
    spectator = map_power(_shared_twist(alg), pair.power)
    col = _Collector(f"quasi-derivation(power={pair.power})", cap)
    slot_maps = (pair.d,) * alg.arity
    for args, rhs, lhs in _leibniz_cells(alg, pair.dprime, slot_maps, spectator):
        col.tick()
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def check_generalized_derivation(
    tup: GeneralizedTuple,
    alg: HomSuperAlgebra,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
    spectator: GradedLinearMap | None = None,
) -> CheckReport:
    """Slot-wise maps with one output map: the (n+1)-ary twisted Leibniz rule."""
    alpha = _shared_twist(alg)
    n = alg.arity
    if len(tup.maps) != n + 1:
        raise ValueError(f"generalized tuple needs {n + 1} maps for arity {n}")
    if spectator is None:
        spectator = map_power(alpha, tup.power)
    col = _Collector(f"generalized-derivation(power={tup.power})", cap)
    for args, lhs, rhs in _leibniz_cells(alg, tup.maps[n], tup.maps[:n], spectator):
        col.tick()
        if lhs != rhs:
            col.fail(args, lhs, rhs)
    return col.report()


def check_derivation_closure(
    c1: DerivationCandidate,
    c2: DerivationCandidate,
    alg: HomSuperAlgebra,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> CheckReport:
    """Supercommutator of two verified derivations at the summed power."""
    for c in (c1, c2):
        if not check_derivation(c, alg).passed:
            raise ValueError("closure check requires verified derivations")
    comm = supercommutator_maps(c1.map, c2.map)
    return check_derivation(DerivationCandidate(comm, c1.power + c2.power), alg, cap)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

def derivation_variables(space, parity: int) -> list[tuple[str, str]]:
    """(row, column) matrix positions a parity-homogeneous map may populate.

    Column-major order; this fixes the coordinates used by the solver and the
    canonical form of its output.
    """
    out = []
    for c in space.labels:
        for r in space.labels:
            if (space.parity(r) + space.parity(c)) % 2 == parity:
                out.append((r, c))
    return out


def derivation_constraints(
    alg: HomSuperAlgebra, k: int, parity: int
) -> tuple[list[list[int]], list[tuple[str, str]]]:
    """Constraint matrix over the unknown entries of a parity-``parity`` map.

    Rows are primitive integer rows (gcd 1, first nonzero entry positive),
    each listed once in first-seen order: the commutation rows, then the
    Leibniz rows, one per (basis tuple, output coordinate) that some term
    reaches.  Their row space is that of the defining equations.
    """
    alpha = _shared_twist(alg)
    space = alg.space
    labels = space.labels
    variables = derivation_variables(space, parity)
    var_index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    rows: dict = {}  # distinct primitive rows (None for zero) in first-seen order

    # D(alpha(c)) = alpha(D(c)), coordinate by coordinate
    scale = _common_denominator(
        v for l in labels for v in alpha.apply_basis(l).coeffs.values()
    )
    for c in labels:
        alpha_c = alpha.apply_basis(c)
        for rho in labels:
            row = [0] * nvars
            for w, coeff in alpha_c.coeffs.items():
                idx = var_index.get((rho, w))
                if idx is not None:
                    row[idx] += int(coeff * scale)
            for r in labels:
                idx = var_index.get((r, c))
                if idx is not None:
                    row[idx] -= int(alpha.apply_basis(r).coeffs.get(rho, 0) * scale)
            rows[linalg.primitive_row(row)] = None

    # Leibniz rule at every (x_1..x_n, rho) some term reaches: entry p of the
    # tensor gives the left side at x = p, and right-side term i at every x
    # with (p_i, x_i) a variable and S(x_j) hitting p_j for j != i
    n = alg.arity
    entries = alg.bracket.entries
    spectator = map_power(alpha, k)
    sigma = _common_denominator(c for v in entries.values() for c in v.coeffs.values())
    tau = _common_denominator(
        v for l in labels for v in spectator.apply_basis(l).coeffs.values()
    )
    preimages: dict[str, list] = {}  # preimages[y] = [(x, S[y, x] * tau)]
    for x in labels:
        for y, c in spectator.apply_basis(x).coeffs.items():
            preimages.setdefault(y, []).append((x, int(c * tau)))
    # every term holds one tensor entry (scaled by sigma) and, on the right
    # side, n - 1 spectator entries (scaled by tau each)
    lhs_scale = tau ** (n - 1)
    by_row = {r: [(x, var_index[r, x]) for x in labels if (r, x) in var_index] for r in labels}
    by_col = {b: [(r, var_index[r, b]) for r in labels if (r, b) in var_index] for b in labels}
    parity_of = dict(zip(labels, space.parities))
    acc = defaultdict(lambda: [0] * nvars)  # (args, rho) -> row
    for p, value in entries.items():
        out = [(rho, int(c * sigma)) for rho, c in value.coeffs.items()]
        for b, t in out:
            for rho, idx in by_col[b]:
                acc[p, rho][idx] += t * lhs_scale
        odd_prefix = 0  # parity of p_1..p_{i-1}, that of x_1..x_{i-1} (S is even)
        for i, r in enumerate(p):
            sign = -1 if parity and odd_prefix else 1
            odd_prefix ^= parity_of[r]
            right = _choices(p[i + 1 :], [preimages] * (n - 1 - i))
            spectators = [
                (lt, rt, sign * lc * rc)
                for lt, lc in _choices(p[:i], [preimages] * i)
                for rt, rc in right
            ]
            for x, idx in by_row[r]:
                for lt, rt, s in spectators:
                    args = lt + (x,) + rt
                    for rho, t in out:
                        acc[args, rho][idx] -= s * t
    for row in acc.values():
        rows[linalg.primitive_row(row)] = None
    return [list(row) for row in rows if row is not None], variables


def solve_derivation_space(alg: HomSuperAlgebra, k: int, parity: int) -> list[GradedLinearMap]:
    """Exact basis of the power-k derivations of declared parity.

    Vectors come from the reduced echelon form of the constraint system with
    one free variable set to 1 each, so the result is canonical and
    deterministic; an empty list means only the zero derivation exists.
    """
    rows, variables = derivation_constraints(alg, k, parity)
    vectors = linalg.nullspace(rows, ncols=len(variables))
    space = alg.space
    maps = []
    for vec in vectors:
        cols: dict[str, dict[str, Fraction]] = {l: {} for l in space.labels}
        for (r, c), value in zip(variables, vec):
            if value:
                cols[c][r] = value
        maps.append(
            GradedLinearMap(space, parity, {c: Element(d) for c, d in cols.items()})
        )
    return maps
