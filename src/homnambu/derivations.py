"""Twisted derivations: checking, solving, inner/quasi/generalized variants.

A power-k derivation candidate D of a multiplicative algebra with twist a must
commute with a and satisfy the graded Leibniz rule in which every spectator
argument is twisted by a^k and moving D past the first i-1 arguments costs
(-1)^(|D| * (p_1 + .. + p_{i-1})).

The solver sets the matrix entries of an unknown parity-homogeneous map as
variables and returns the exact nullspace basis of the commutation and
Leibniz constraints.  One parity class is solved at a time since the Leibniz
sign depends on the parity of the unknown map.  The rows come from the
kernel the checkers share, one call per matrix unit, over the tensor's
support rather than all d^n basis tuples: each stored entry contributes its
left-side terms at its own index tuple and its right-side terms at the
tuples whose spectator images hit it.  Denominators are cleared once,
every row is reduced to a primitive integer row, and each distinct row is
kept once, so the elimination sees a few hundred rows where the defining
equations number tens of thousands.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .axioms import (
    CheckReport,
    DEFAULT_COUNTEREXAMPLE_CAP,
    _as_element,
    _Collector,
    _integer_columns,
    _leibniz_kernel,
    _numerators,
    _preimages,
    _shared_twist,
    _twist_commutation,
    adjoint_map,
)
from .core import (
    Element,
    FixedPointViolation,
    GradedLinearMap,
    HomSuperAlgebra,
    map_compose,
    map_power,
    record,
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
        if self.d.parity != self.dprime.parity and not (
            self.d.is_zero() or self.dprime.is_zero()
        ):
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
    _leibniz_checker(alg, spectator)(col, d, (d,) * alg.arity)
    return col.report()


def _leibniz_checker(alg: HomSuperAlgebra, spectator: GradedLinearMap):
    """The Leibniz-rule family's checker, on :func:`axioms._leibniz_kernel`.

    Returns ``check(col, out_map, slot_maps, head=(), cell=None, swap=False)``,
    which adds to ``col`` every basis tuple y where

        out_map([y]) != sum_i (-1)^(|f_i| (p_1 + .. + p_{i-1})) [S y_1, .., f_i(y_i), .., S y_n]

    with S = ``spectator`` and f_i = ``slot_maps[i]``, in basis order after
    ``head``.  ``cell`` checks that one tuple only; ``swap`` reports the
    Leibniz sum as lhs.  Derivations, quasi- and generalized derivations and
    the adjoint expansion differ only in the maps they pass.
    """
    space = alg.space
    labels = space.labels
    n = alg.arity
    sigma, terms = _numerators({args: v.coeffs for args, v in alg.bracket.entries.items()})
    tau, (spec,) = _integer_columns([spectator], labels)
    pre = [_preimages(spec)] * n
    kernel = _leibniz_kernel(terms, labels, space, pre, pre)
    lhs_scale = tau ** (n - 1)  # each right-side term holds n - 1 spectator entries

    def check(col, out_map, slot_maps, head=(), cell=None, swap=False):
        delta, (out, *slots) = _integer_columns([out_map, *slot_maps], labels)
        odd = next((f.parity for f in slot_maps if not f.is_zero()), 0)
        acc = kernel(out, slots, odd, lhs_scale)
        if cell is not None:
            space.sort_key(cell)  # unknown labels raise
            acc = {cell: acc[cell]} if cell in acc else {}
        col.tick(space.dim ** n if cell is None else 1)
        value = _as_element(labels, sigma * delta * lhs_scale)
        col.fail_cells(acc, value, space.sort_key, head, swap)

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
    _leibniz_checker(alg, spectator)(col, pair.dprime, (pair.d,) * alg.arity, swap=True)
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
    _leibniz_checker(alg, spectator)(col, tup.maps[n], tup.maps[:n])
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
    n = alg.arity
    width = len(labels)
    _, terms = _numerators({args: v.coeffs for args, v in alg.bracket.entries.items()})
    tau, (twist, spec) = _integer_columns([alpha, map_power(alpha, k)], labels)
    pre = [_preimages(spec)] * n
    # D(alpha(c)) = alpha(D(c)) is the Leibniz rule of the 1-ary tensor
    # alpha; then the bracket's, with spectator alpha^k.  Both are linear in
    # D, so the residual (left minus right side) of the matrix unit E_{r,c}
    # at (x, rho) is the entry of that unknown in the row of (x, rho).
    kernels = (
        (_leibniz_kernel({(c,): twist[c] for c in labels}, labels, space, [], [None]), 1, 1),
        (_leibniz_kernel(terms, labels, space, pre, pre), n, tau ** (n - 1)),
    )
    rows: dict = {}  # distinct primitive rows in first-seen order
    for kernel, arity, lhs_scale in kernels:
        acc = defaultdict(([0] * len(variables)).copy)  # (x, rho) -> row
        for idx, (r, c) in enumerate(variables):
            unit = {c: [(r, 1)]}
            for args, vec in kernel(unit, [unit] * arity, parity, lhs_scale).items():
                for rho in range(width):
                    if vec[rho] != vec[width + rho]:
                        acc[args, rho][idx] = vec[rho] - vec[width + rho]
        for row in dict.fromkeys(map(tuple, acc.values())):
            rows[linalg.primitive_row(row)] = None
    return [list(row) for row in rows], variables


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
