"""Left-nested n-fold brackets built from a binary multiplicative algebra.

The n-ary bracket nests the binary one to the left, twisting the j-th argument
by alpha^(j-2):

    [x_1, .., x_n] = [[ .. [[x_1, x_2], a(x_3)], .. ], a^(n-2)(x_n)]

and the resulting n-ary algebra carries the twist a^(n-1).  The recursion
[x_1..x_n] = [[x_1..x_{n-1}], a^(n-2)(x_n)] is the ground truth for values at
every arity; the tests evaluate it directly as an oracle for the tensor.

Derivation-transfer checks on the n-ary algebra keep the base twist in the
spectator slots (a^k, not (a^(n-1))^k): that is the rule the transferred
Leibniz identity actually satisfies.
"""

from __future__ import annotations

from .axioms import CheckReport, _Collector, DEFAULT_COUNTEREXAMPLE_CAP, _compose, adjoint_map
from .core import GradedLinearMap, HomSuperAlgebra, NaryBracket, map_power, multiplicative_algebra
from .derivations import (
    DerivationCandidate,
    GeneralizedTuple,
    QuasiPair,
    _leibniz_checker,
    check_derivation,
    check_generalized_derivation,
    check_quasi_derivation,
)


def _require_binary_multiplicative(alg: HomSuperAlgebra):
    if alg.arity != 2:
        raise ValueError("iterated brackets start from a binary algebra")
    if not alg.multiplicative_flag:
        raise ValueError("iterated brackets need a multiplicative algebra")


def iterated_bracket(alg: HomSuperAlgebra, n: int) -> HomSuperAlgebra:
    """Build the arity-n nested bracket; returns the algebra with twist a^(n-1)."""
    _require_binary_multiplicative(alg)
    if n < 2:
        raise ValueError("arity must be at least 2")
    if n == 2:
        return alg
    alpha = alg.twist
    table = T = alg.bracket.table
    for m in range(3, n + 1):
        table = _compose(T, slot_maps=[table, map_power(alpha, m - 2)])
    return multiplicative_algebra(alg.space, NaryBracket.of_table(n, table), map_power(alpha, n - 1))


def check_adjoint_expansion(
    alg: HomSuperAlgebra,
    n: int,
    x: str | None = None,
    ys: tuple[str, ...] | None = None,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> CheckReport:
    """Bracketing with a^(n-1)(x) expands slotwise over the nested bracket:

        [a^(n-1)(x), [y_1..y_n]] = sum_k (-1)^(|x| |Y|^{k-1})
                                   [a(y_1), .., [x, y_k], .., a(y_n)]

    that is, ad_x is a Leibniz slot map of the nested bracket with spectator a.

    With explicit ``x`` and ``ys`` only that instance is checked; otherwise the
    identity is verified exhaustively over the basis.
    """
    _require_binary_multiplicative(alg)
    if ys is not None and len(ys) != n:
        raise ValueError(f"an adjoint-expansion instance needs {n} ys, got {len(ys)}")
    col = _Collector(f"adjoint-expansion(n={n})", cap)
    power = map_power(alg.twist, n - 1)
    instances = [
        ((xv,), adjoint_map(alg, [power.apply_basis(xv)]), (adjoint_map(alg, [xv]),) * n)
        for xv in ([x] if x is not None else alg.space.labels)
    ]
    _leibniz_checker(iterated_bracket(alg, n), alg.twist)(col, instances, None if ys is None else tuple(ys))
    return col.report()


def iterated_transfer_derivation(
    cand: DerivationCandidate,
    alg: HomSuperAlgebra,
    n: int,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> CheckReport:
    """A verified base derivation obeys the n-ary Leibniz rule with a^k spectators."""
    _require_binary_multiplicative(alg)
    if not check_derivation(cand, alg).passed:
        raise ValueError("transfer requires a verified derivation of the base algebra")
    nested = iterated_bracket(alg, n)
    spectator = map_power(alg.twist, cand.power)
    return check_derivation(cand, nested, cap, spectator=spectator)


def iterated_generalized_tuple(
    chain: list[GradedLinearMap],
    alg: HomSuperAlgebra,
    k: int,
    n: int,
    cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> CheckReport:
    """A chain of quasi-derivations acts slotwise on the nested bracket.

    ``chain`` lists D^(0) .. D^(n-1) where each consecutive pair is a verified
    quasi-derivation pair; the tuple tested has D^(0) in the first two slots,
    then the chain, with D^(n-1) on the output.
    """
    _require_binary_multiplicative(alg)
    if len(chain) != n:
        raise ValueError(f"need a chain of {n} maps for arity {n}")
    for d, dprime in zip(chain, chain[1:]):
        if not check_quasi_derivation(QuasiPair(d, dprime, k), alg).passed:
            raise ValueError("chain entries must be verified quasi-derivation pairs")
    nested = iterated_bracket(alg, n)
    maps = (chain[0],) + tuple(chain[: n - 1]) + (chain[n - 1],)
    spectator = map_power(alg.twist, k)
    return check_generalized_derivation(GeneralizedTuple(maps, k), nested, cap, spectator=spectator)
