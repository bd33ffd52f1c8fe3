"""Built-in parameterized fixture algebras.

The two-dimensional classification family (g1_0_2 .. g5_1_1), the twisted
orthosymplectic family osp12, and two three-dimensional examples L1 (carrying
the degree-1 form used for induced ternary brackets) and L2 (the base of the
nested-bracket worked example).

Each entry is an algebra-file document read by :func:`algfile.load`, so it gets
a file's schema, orbit and grading checks.  It declares the axiom profile its
instantiations satisfy; the CI suite re-verifies the profile for several
parameter choices.  Two quirks inherited from the sources are normalized here:

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

from . import algfile
from .core import complete_skew_orbit, format_scalar, record, scalar

# benchmarks/tracer.py wraps this name; algfile.load completes the orbits. ROADMAP item 2's tracer fix retires it.
_TRACED_ORBIT = complete_skew_orbit

FULL_PROFILE = ("grading", "super-skew", "hom-jacobi", "multiplicative")
NO_JACOBI_PROFILE = ("grading", "super-skew", "multiplicative")


class CatalogError(ValueError):
    """Unknown entry, unknown or repeated parameter, or violated parameter constraint."""


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
    builder: Callable[[Mapping[str, Fraction]], algfile.AlgebraBundle]

    def build(self, **params) -> algfile.AlgebraBundle:
        resolved = {}
        if "λ" in params and any(param.name == "lambda" for param in self.parameters):  # else unknown, as typed
            if "lambda" in params:
                raise CatalogError(f"{self.name}: parameter lambda given twice, as lambda and λ")
            params["lambda"] = params.pop("λ")
        for param in self.parameters:
            raw = params.pop(param.name, param.default)
            value = scalar(raw)
            if not param.admits(value):
                raise CatalogError(
                    f"{self.name}: parameter {param.name}={value} violates "
                    f"constraint '{param.constraint}'"
                )
            resolved[param.name] = value
        if params:
            raise CatalogError(f"{self.name}: unknown parameters {sorted(params)}")
        return self.builder(resolved)


def _document(name, basis, generators, twist, cochains=(), operators=()):
    """An entry as a file document; ``cochains`` are (degree, values) pairs, ``operators`` (kind, matrix) pairs."""
    matrix = lambda rows: [[format_scalar(v) for v in row] for row in rows]
    return {
        "name": name,
        "basis": [{"label": label, "parity": parity} for label, parity in basis],
        "arity": 2,
        "multiplicative": True,
        "twists": [matrix(twist)],
        "bracket": [
            {"args": list(args), "value": {label: format_scalar(v) for label, v in value.items()}}
            for args, value in generators.items()
        ],
        "skew_complete": True,
        "cochains": [
            {"degree": k, "values": [{"args": list(args), "value": format_scalar(v)} for args, v in values.items()]}
            for k, values in cochains
        ],
        "operators": [{"kind": kind, "matrix": matrix(rows)} for kind, rows in operators],
    }


def _build_g1(p):
    return algfile.load(_document("g1_0_2", [("e1", 1), ("e2", 1)], {}, [[p["a"], 0], [0, p["a"]]]))


def _build_g2(p):
    return algfile.load(_document("g2_1_1", [("e0", 0), ("e1", 1)], {}, [[p["a"], 0], [0, p["a"]]]))


def _build_g3(p):
    operators = [("derivation", [[0, 0], [0, 1]]), ("rota_baxter", [[1, 0], [0, 0]])]
    generators = {("e0", "e1"): {"e1": 1}}
    return algfile.load(_document("g3_1_1", [("e0", 0), ("e1", 1)], generators, [[1, 0], [0, p["a"]]], (), operators))


def _build_g4(p):
    return algfile.load(_document("g4_1_1", [("e0", 0), ("e1", 1)], {("e0", "e1"): {"e1": 1}}, [[p["a"], 0], [0, 0]]))


def _build_g5(p):
    a = p["a"]
    operators = [("rota_baxter", [[Fraction(1, 2), 0], [0, 1]]), ("derivation", [[2, 0], [0, 1]])]
    generators = {("e1", "e1"): {"e0": 1}}
    return algfile.load(_document("g5_1_1", [("e0", 0), ("e1", 1)], generators, [[a * a, 0], [0, a]], (), operators))


def _build_osp12(p):
    lam = p["lambda"]
    basis = [("X", 0), ("Y", 0), ("H", 0), ("F", 1), ("G", 1)]
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
    return algfile.load(_document("osp12", basis, generators, alpha))


def _build_L1(p):
    a, b = p["a"], p["b"]
    basis = [("e1", 0), ("e2", 0), ("e3", 1)]
    generators = {
        ("e2", "e3"): {"e3": 1},
        ("e3", "e3"): {"e1": 1},
    }
    alpha = [[a * a, 0, 0], [0, 1, 0], [0, 0, a]]
    cochains = [(1, {("e2",): b})]
    operators = [("rota_baxter", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])]
    return algfile.load(_document("L1", basis, generators, alpha, cochains, operators))


def _build_L2(p):
    a, b, c = p["a"], p["b"], p["c"]
    generators = {
        ("e1", "e3"): {"e2": b},
        ("e2", "e3"): {"e1": c},
    }
    alpha = [[a, 0, 0], [0, a, 0], [0, 0, 1]]
    return algfile.load(_document("L2", [("e1", 0), ("e2", 1), ("e3", 1)], generators, alpha))


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


def catalog_build(name: str, **params) -> algfile.AlgebraBundle:
    return catalog_entry(name).build(**params)


def hom_lie_entries() -> tuple[CatalogEntry, ...]:
    """Entries whose declared profile includes the twisted Jacobi identity."""
    return tuple(e for e in ENTRIES if "hom-jacobi" in e.profile)
