"""Twisted derivations: checking, solving, inner/quasi/generalized variants.

A power-k derivation candidate D of a multiplicative algebra with twist a must
commute with a and satisfy the graded Leibniz rule in which every spectator
argument is twisted by a^k and moving D past the first i-1 arguments costs
(-1)^(|D| * (p_1 + .. + p_{i-1})).

The solver returns the exact nullspace of the commutation and Leibniz
constraints on the matrix entries of an unknown map of one parity (the
Leibniz sign depends on it), in two stages on the kernel the checkers
share.  One scatter of the 1-ary twist tensor, each matrix unit tagging its
own entries, gives the commutation rows; one scatter over the bracket's
support, each basis map of their nullspace tagging its entries, gives the
Leibniz residuals on the maps that commute, which are lifted back onto that
basis's free columns.  Each row is made primitive with one gcd and kept
once; the rows span the row space of the defining equations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .axioms import (
    CheckReport, DEFAULT_COUNTEREXAMPLE_CAP, _Collector, _leibniz_kernel, _leibniz_sweep, _shared_twist,
    _twist_commutation, _unary, adjoint_map,
)
from .core import (
    FixedPointViolation, GradedLinearMap, HomSuperAlgebra, integer_table, map_compose, map_power, record,
    supercommutator_maps,
)
from . import linalg


@record
class DerivationCandidate:
    map: GradedLinearMap
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be nonnegative")


@record
class QuasiPair:
    d: GradedLinearMap
    dprime: GradedLinearMap
    power: int

    def __post_init__(self):
        if self.d.parity != self.dprime.parity and not (self.d.is_zero() or self.dprime.is_zero()):
            raise ValueError("quasi-pair maps must share a parity")


@record
class GeneralizedTuple:
    """n maps acting one per argument slot plus one map on the output."""

    maps: tuple[GradedLinearMap, ...]
    power: int

    def __post_init__(self):
        parities = {m.parity for m in self.maps if not m.is_zero()}
        if len(parities) > 1:
            raise ValueError("all maps of a generalized tuple must share a parity")


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
    _leibniz_checker(alg, spectator)(col, [((), d, (d,) * alg.arity)])
    return col.report()


def _leibniz_checker(alg: HomSuperAlgebra, spectator: GradedLinearMap):
    """The Leibniz-rule family's checker, on :func:`axioms._leibniz_kernel`.

    Returns ``check(col, instances, cell=None, swap=False)``: each instance
    (head, out_map, slot_maps) fails, at head + y, every basis tuple y where

        out_map([y]) != sum_i (-1)^(|f_i| (p_1 + .. + p_{i-1})) [S y_1, .., f_i(y_i), .., S y_n]

    with S = ``spectator`` and f_i = ``slot_maps[i]``, all instances in one
    :func:`axioms._leibniz_sweep`.  Derivations, quasi- and generalized
    derivations and the adjoint expansion differ only in the maps they pass.
    """
    space, n, spec = alg.space, alg.arity, spectator.integer_columns
    kernel = _leibniz_kernel(alg.bracket.table, space.labels, space, [spec] * n, [spec] * n)

    def check(col, instances, cell=None, swap=False):
        odd = lambda fs: next((f.parity for f in fs if not f.is_zero()), 0)
        tables = [(head, odd(fs), o.integer_columns, [f.integer_columns for f in fs]) for head, o, fs in instances]
        col.tick(len(tables) * (space.dim ** n if cell is None else 1))
        _leibniz_sweep(col, kernel, tables, cell, swap)

    return check


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
    _leibniz_checker(alg, spectator)(col, [((), pair.dprime, (pair.d,) * alg.arity)], swap=True)
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
    _leibniz_checker(alg, spectator)(col, [((), tup.maps[n], tup.maps[:n])])
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


def derivation_constraints(alg: HomSuperAlgebra, k: int, parity: int) -> tuple[list[list[int]], list[tuple[str, str]]]:
    """Constraint matrix over the unknown entries of a parity-``parity`` map.

    Rows are primitive integer rows (gcd 1, first nonzero entry positive),
    each listed once; their row space is that of the defining equations.
    The commutation rows C come first.  The Leibniz rule is then imposed only
    on null(C), whose canonical basis N_j has a 1 at its last nonzero, the
    free column f_j: every v in null(C) is sum_j v[f_j] N_j, so a Leibniz
    residual u over the N_j becomes the row with u_j at f_j.
    """
    alpha = _shared_twist(alg)
    space = alg.space
    labels = space.labels
    width = len(labels)
    variables = derivation_variables(space, parity)
    n = alg.arity
    spec = map_power(alpha, k).integer_columns

    def residuals(kernel, arity, basis):  # distinct primitive rows over the integer maps in basis
        out, slot = defaultdict(list), defaultdict(list)  # each map tags its entries: one scatter sums all rows
        for j, vec in enumerate(basis):
            for (r, c), v in zip(variables, vec):
                if v:
                    out[c].append((r, v, j))
                    slot[r].append((c, -v, j))
        block, raw = space.dim ** arity * width, defaultdict(([0] * len(basis)).copy)  # a key: tag * block + row
        for key, v in kernel(out, [slot] * arity, parity)[0].items():
            raw[key % block][key // block] = v
        return dict.fromkeys(filter(None, map(linalg.primitive_ints, dict.fromkeys(map(tuple, raw.values())))))

    # D(alpha(c)) = alpha(D(c)) is the Leibniz rule of the 1-ary tensor alpha, scattered over every matrix unit
    units = [[int(i == j) for i in range(len(variables))] for j in range(len(variables))]
    rows = residuals(_leibniz_kernel(_unary(alpha), labels, space, [], [None]), 1, units)
    free = linalg.nullspace(list(rows), ncols=len(variables))
    if free:  # then the bracket's, with spectator alpha^k, over the N_j on one common denominator
        delta = math.lcm(*(v.denominator for vec in free for v in vec))
        last = [max(i for i, v in enumerate(vec) if v) for vec in free]
        basis = [[int(v * delta) for v in vec] for vec in free]
        for u in residuals(_leibniz_kernel(alg.bracket.table, labels, space, [spec] * n, [spec] * n), n, basis):
            row = [0] * len(variables)
            for f, uj in zip(last, u):
                row[f] = uj
            rows[tuple(row)] = None
    return list(map(list, rows)), variables


def solve_derivation_space(alg: HomSuperAlgebra, k: int, parity: int) -> list[GradedLinearMap]:
    """Exact basis of the power-k derivations of declared parity.

    Vectors come from the reduced echelon form of the constraint system with
    one free variable set to 1 each, so the result is canonical and
    deterministic; an empty list means only the zero derivation exists.
    """
    rows, variables = derivation_constraints(alg, k, parity)
    vectors = linalg.nullspace(rows, ncols=len(variables))
    maps = []
    for vec in vectors:
        cols: dict[str, dict[str, Fraction]] = {}
        for (r, c), value in zip(variables, vec):
            if value:
                cols.setdefault(c, {})[r] = value
        maps.append(GradedLinearMap.of_table(alg.space, parity, integer_table(cols)))
    return maps
