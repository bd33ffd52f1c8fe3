"""Built-in parameterized fixture algebras.

The two-dimensional classification family (g1_0_2 .. g5_1_1), the twisted
orthosymplectic family osp12, and two three-dimensional examples L1 (carrying
the degree-1 form used for induced ternary brackets) and L2 (the base of the
nested-bracket worked example).

Each entry declares the axiom profile its instantiations satisfy; the CI suite
re-verifies the profile for several parameter choices.  Two quirks inherited
from the sources are normalized here:

* L1's printed twist sends the odd basis vector to an even one, which no even
  map can do; the unique even reading consistent with form-invariance and
  multiplicativity scales the odd vector by a, and that is what is built.
* L2's printed bracket list assigns [e3,e3] twice; the reading [e2,e3] = c*e1
  is used, the only one reproducing the published nested-bracket values.

Neither L1 nor L2 satisfies the twisted Jacobi identity (an exact counterexample
exists for every admissible parameter choice), so their declared profiles stop
at multiplicativity; constructions whose hypotheses need the Jacobi identity
quantify over the entries that declare it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction

from .algfile import AlgebraBundle, AttachedOperator
from .cochains import SuperCochain
from .core import (
    Element,
    GradedLinearMap,
    NaryBracket,
    SuperSpace,
    complete_skew_orbit,
    multiplicative_algebra,
    record,
    scalar,
)

FULL_PROFILE = ("grading", "super-skew", "hom-jacobi", "multiplicative")
NO_JACOBI_PROFILE = ("grading", "super-skew", "multiplicative")


class CatalogError(ValueError):
    """Unknown entry or violated parameter constraint."""


@record
class ParamSpec:
    name: str
    default: Fraction
    constraint: str = ""

    def admits(self, value: Fraction) -> bool:
        if self.constraint == "nonzero":
            return value != 0
        if self.constraint == "not 0 or 1":
            return value not in (0, 1)
        return True


@record
class CatalogEntry:
    name: str
    summary: str
    parameters: tuple[ParamSpec, ...]
    profile: tuple[str, ...]
    builder: Callable[[Mapping[str, Fraction]], AlgebraBundle]

    def build(self, **params) -> AlgebraBundle:
        resolved = {}
        aliases = dict(params)
        if "λ" in aliases:
            aliases["lambda"] = aliases.pop("λ")
        for param in self.parameters:
            raw = aliases.pop(param.name, param.default)
            value = scalar(raw)
            if not param.admits(value):
                raise CatalogError(
                    f"{self.name}: parameter {param.name}={value} violates "
                    f"constraint '{param.constraint}'"
                )
            resolved[param.name] = value
        if aliases:
            raise CatalogError(f"{self.name}: unknown parameters {sorted(aliases)}")
        return self.builder(resolved)


def _skew_algebra(space, generators, alpha_rows):
    alpha = GradedLinearMap.from_matrix(space, alpha_rows, parity=0)
    entries = complete_skew_orbit(2, generators, space)
    return multiplicative_algebra(space, NaryBracket(2, entries), alpha)


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
        space, {("e0", "e1"): Element({"e1": 1})}, [[1, 0], [0, p["a"]]]
    )
    operators = (
        AttachedOperator(
            "derivation",
            GradedLinearMap.from_matrix(space, [[0, 0], [0, 1]], parity=0),
            power=0,
        ),
        AttachedOperator(
            "rota_baxter",
            GradedLinearMap.from_matrix(space, [[1, 0], [0, 0]], parity=0),
            weight=Fraction(0),
        ),
    )
    return AlgebraBundle("g3_1_1", alg, operators=operators)


def _build_g4(p):
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(
        space, {("e0", "e1"): Element({"e1": 1})}, [[p["a"], 0], [0, 0]]
    )
    return AlgebraBundle("g4_1_1", alg)


def _build_g5(p):
    a = p["a"]
    space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])
    alg = _skew_algebra(
        space, {("e1", "e1"): Element({"e0": 1})}, [[a * a, 0], [0, a]]
    )
    operators = (
        AttachedOperator(
            "rota_baxter",
            GradedLinearMap.from_matrix(space, [[Fraction(1, 2), 0], [0, 1]], parity=0),
            weight=Fraction(0),
        ),
        AttachedOperator(
            "derivation",
            GradedLinearMap.from_matrix(space, [[2, 0], [0, 1]], parity=0),
            power=0,
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
        ("H", "X"): Element({"X": 2 * l2}),
        ("H", "Y"): Element({"Y": Fraction(-2) / l2}),
        ("X", "Y"): Element({"H": 1}),
        ("Y", "G"): Element({"F": 1 / lam}),
        ("X", "F"): Element({"G": lam}),
        ("H", "F"): Element({"F": -1 / lam}),
        ("H", "G"): Element({"G": lam}),
        ("G", "F"): Element({"H": 1}),
        ("G", "G"): Element({"X": -2 * l2}),
        ("F", "F"): Element({"Y": 2 / l2}),
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
            ("e2", "e3"): Element({"e3": 1}),
            ("e3", "e3"): Element({"e1": 1}),
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
            weight=Fraction(0),
        ),
    )
    return AlgebraBundle("L1", alg, cochains=(phi,), operators=operators)


def _build_L2(p):
    a, b, c = p["a"], p["b"], p["c"]
    space = SuperSpace.from_pairs([("e1", 0), ("e2", 1), ("e3", 1)])
    alg = _skew_algebra(
        space,
        {
            ("e1", "e3"): Element({"e2": b}),
            ("e2", "e3"): Element({"e1": c}),
        },
        [[a, 0, 0], [0, a, 0], [0, 0, 1]],
    )
    return AlgebraBundle("L2", alg)


ENTRIES = (
    CatalogEntry(
        "g1_0_2",
        "abelian, purely odd two-dimensional space, scalar twist",
        (ParamSpec("a", Fraction(1)),),
        FULL_PROFILE,
        _build_g1,
    ),
    CatalogEntry(
        "g2_1_1",
        "abelian, one even and one odd generator, scalar twist",
        (ParamSpec("a", Fraction(1)),),
        FULL_PROFILE,
        _build_g2,
    ),
    CatalogEntry(
        "g3_1_1",
        "[e0,e1] = e1 with twist diag(1, a)",
        (ParamSpec("a", Fraction(2)),),
        FULL_PROFILE,
        _build_g3,
    ),
    CatalogEntry(
        "g4_1_1",
        "[e0,e1] = e1 with twist diag(a, 0)",
        (ParamSpec("a", Fraction(2), "not 0 or 1"),),
        FULL_PROFILE,
        _build_g4,
    ),
    CatalogEntry(
        "g5_1_1",
        "[e1,e1] = e0 with twist diag(a^2, a)",
        (ParamSpec("a", Fraction(2), "nonzero"),),
        FULL_PROFILE,
        _build_g5,
    ),
    CatalogEntry(
        "osp12",
        "twisted orthosymplectic family on basis X, Y, H | F, G",
        (ParamSpec("lambda", Fraction(2), "nonzero"),),
        FULL_PROFILE,
        _build_osp12,
    ),
    CatalogEntry(
        "L1",
        "3-dim: [e2,e3] = e3, [e3,e3] = e1, twist diag(a^2, 1, a); carries the "
        "degree-1 form e2 -> b (twisted Jacobi fails, see module notes)",
        (ParamSpec("a", Fraction(1), "nonzero"), ParamSpec("b", Fraction(3))),
        NO_JACOBI_PROFILE,
        _build_L1,
    ),
    CatalogEntry(
        "L2",
        "3-dim: [e1,e3] = b*e2, [e2,e3] = c*e1, twist diag(a, a, 1) "
        "(twisted Jacobi fails, see module notes)",
        (
            ParamSpec("a", Fraction(1), "nonzero"),
            ParamSpec("b", Fraction(2)),
            ParamSpec("c", Fraction(3)),
        ),
        NO_JACOBI_PROFILE,
        _build_L2,
    ),
)

_BY_NAME = {e.name: e for e in ENTRIES}


def catalog_list() -> tuple[CatalogEntry, ...]:
    return ENTRIES


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}") from None


def catalog_build(name: str, **params) -> AlgebraBundle:
    return catalog_entry(name).build(**params)


def hom_lie_entries() -> tuple[CatalogEntry, ...]:
    """Entries whose declared profile includes the twisted Jacobi identity."""
    return tuple(e for e in ENTRIES if "hom-jacobi" in e.profile)
