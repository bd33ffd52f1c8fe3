"""The catalog's entries as they were built before they became algebra-file documents.

Each builder below made its own ``SuperSpace``, completed the skew orbits of
its generating set, and built the twist, the operator matrices, the cochain
and the bundle itself.  The entries are now documents that
:func:`homnambu.algfile.load` reads; these builders, kept verbatim, are the
reference the tests compare each entry with, record for record and byte for
byte in :func:`homnambu.algfile.emit`.
"""

from __future__ import annotations

from fractions import Fraction

from homnambu.algfile import AlgebraBundle, AttachedOperator
from homnambu.cochains import SuperCochain
from homnambu.core import (
    GradedLinearMap,
    NaryBracket,
    SuperSpace,
    complete_skew_orbit,
    integer_table,
    multiplicative_algebra,
)


def _skew_algebra(space, generators, alpha_rows):
    alpha = GradedLinearMap.from_matrix(space, alpha_rows, parity=0)
    table = complete_skew_orbit(2, integer_table(generators), space)
    return multiplicative_algebra(space, NaryBracket.of_table(2, table), alpha)


def _build_g1(p):
    space = SuperSpace.from_pairs([("e1", 1), ("e2", 1)])
    alg = _skew_algebra(space, {}, [[p["a"], 0], [0, p["a"]]])
    return AlgebraBundle("g1_0_2", alg)


def _build_g2(p):
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(space, {}, [[p["a"], 0], [0, p["a"]]])
    return AlgebraBundle("g2_1_1", alg)


def _build_g3(p):
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(
        space, {("e0", "e1"): {"e1": 1}}, [[1, 0], [0, p["a"]]]
    )
    operators = (
        AttachedOperator(
            "derivation",
            GradedLinearMap.from_matrix(space, [[0, 0], [0, 1]], parity=0),
        ),
        AttachedOperator(
            "rota_baxter",
            GradedLinearMap.from_matrix(space, [[1, 0], [0, 0]], parity=0),
        ),
    )
    return AlgebraBundle("g3_1_1", alg, operators=operators)


def _build_g4(p):
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(
        space, {("e0", "e1"): {"e1": 1}}, [[p["a"], 0], [0, 0]]
    )
    return AlgebraBundle("g4_1_1", alg)


def _build_g5(p):
    a = p["a"]
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(
        space, {("e1", "e1"): {"e0": 1}}, [[a * a, 0], [0, a]]
    )
    operators = (
        AttachedOperator(
            "rota_baxter",
            GradedLinearMap.from_matrix(space, [[Fraction(1, 2), 0], [0, 1]], parity=0),
        ),
        AttachedOperator(
            "derivation",
            GradedLinearMap.from_matrix(space, [[2, 0], [0, 1]], parity=0),
        ),
    )
    return AlgebraBundle("g5_1_1", alg, operators=operators)


def _build_osp12(p):
    lam = p["lambda"]
    space = SuperSpace.from_pairs(
        [("X", 0), ("Y", 0), ("H", 0), ("F", 1), ("G", 1)]
    )
    l2 = lam * lam
    generators = {
        ("H", "X"): {"X": 2 * l2},
        ("H", "Y"): {"Y": Fraction(-2) / l2},
        ("X", "Y"): {"H": 1},
        ("Y", "G"): {"F": 1 / lam},
        ("X", "F"): {"G": lam},
        ("H", "F"): {"F": -1 / lam},
        ("H", "G"): {"G": lam},
        ("G", "F"): {"H": 1},
        ("G", "G"): {"X": -2 * l2},
        ("F", "F"): {"Y": 2 / l2},
    }
    alpha = [
        [l2, 0, 0, 0, 0],
        [0, 1 / l2, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1 / lam, 0],
        [0, 0, 0, 0, lam],
    ]
    return AlgebraBundle("osp12", _skew_algebra(space, generators, alpha))


def _build_L1(p):
    a, b = p["a"], p["b"]
    space = SuperSpace.from_pairs([("e1", 0), ("e2", 0), ("e3", 1)])
    alg = _skew_algebra(
        space,
        {
            ("e2", "e3"): {"e3": 1},
            ("e3", "e3"): {"e1": 1},
        },
        [[a * a, 0, 0], [0, 1, 0], [0, 0, a]],
    )
    phi = SuperCochain(space, 1, {("e2",): b})
    operators = (
        AttachedOperator(
            "rota_baxter",
            GradedLinearMap.from_matrix(
                space, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], parity=0
            ),
        ),
    )
    return AlgebraBundle("L1", alg, cochains=(phi,), operators=operators)


def _build_L2(p):
    a, b, c = p["a"], p["b"], p["c"]
    space = SuperSpace.from_pairs([("e1", 0), ("e2", 1), ("e3", 1)])
    alg = _skew_algebra(
        space,
        {
            ("e1", "e3"): {"e2": b},
            ("e2", "e3"): {"e1": c},
        },
        [[a, 0, 0], [0, a, 0], [0, 0, 1]],
    )
    return AlgebraBundle("L2", alg)


BUILDERS = {
    "g1_0_2": _build_g1,
    "g2_1_1": _build_g2,
    "g3_1_1": _build_g3,
    "g4_1_1": _build_g4,
    "g5_1_1": _build_g5,
    "osp12": _build_osp12,
    "L1": _build_L1,
    "L2": _build_L2,
}
