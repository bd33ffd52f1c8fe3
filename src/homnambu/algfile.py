"""The on-disk algebra format: UTF-8 JSON plus '#' comment lines.

Scalars are fraction strings "p/q" (the "/q" omitted when the denominator is
1); no floating point appears anywhere.  A document carries the basis with
parities, the twist matrices (one matrix with ``"multiplicative": true``, or a
full list of arity-1 matrices), the bracket tensor, optional cochains and
optional operators.  With ``skew_complete`` true the listed bracket entries
are a generating set and the loader fills their skew orbits; with false the
tensor is taken verbatim (nested brackets, for instance, are not skew).

Emission is canonical: fixed key order, entries sorted by basis index, reduced
scalars.  ``emit(parse(text))`` is byte-identical for canonical input.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .axioms import check_grading
from .cochains import SuperCochain
from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    SuperSpace,
    complete_skew_orbit,
    format_scalar,
    record,
    scalar,
)

OPERATOR_KINDS = ("derivation", "rota_baxter", "map")


class AlgebraFileError(ValueError):
    """Anything wrong with a document: schema, scalars, orbits, grading."""


@record
class AttachedOperator:
    kind: str
    map: GradedLinearMap
    weight: Fraction = Fraction(0)
    power: int = 0

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise AlgebraFileError(f"unknown operator kind {self.kind!r}")


@record
class AlgebraBundle:
    name: str
    algebra: HomSuperAlgebra
    cochains: tuple[SuperCochain, ...] = ()
    operators: tuple[AttachedOperator, ...] = ()


_FRACTION_RE = None  # compiled lazily


def _scalar(value, where: str) -> Fraction:
    global _FRACTION_RE
    if isinstance(value, bool):
        raise AlgebraFileError(f"{where}: scalars must be integers or 'p/q' strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _FRACTION_RE is None:
            import re

            _FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")
        if not _FRACTION_RE.match(value.strip()):
            raise AlgebraFileError(
                f"bad scalar {value!r} in {where}: expected 'p' or 'p/q'"
            )
        try:
            return scalar(value)
        except ZeroDivisionError:
            raise AlgebraFileError(f"bad scalar {value!r} in {where}: zero denominator") from None
    raise AlgebraFileError(f"{where}: scalars must be integers or 'p/q' strings")


def _matrix(space: SuperSpace, rows, where: str, parity: int = 0) -> GradedLinearMap:
    d = space.dim
    if not isinstance(rows, list) or len(rows) != d or any(
        not isinstance(r, list) or len(r) != d for r in rows
    ):
        raise AlgebraFileError(f"{where}: expected a {d}x{d} row-major matrix")
    values = [[_scalar(v, where) for v in row] for row in rows]
    try:
        return GradedLinearMap.from_matrix(space, values, parity=parity)
    except ValueError as exc:
        raise AlgebraFileError(f"{where}: {exc}") from None


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise AlgebraFileError(f"{where} must be an array")
    return value


def _labels(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(l, str) for l in value):
        raise AlgebraFileError(f"{where} must be an array of basis labels")
    return tuple(value)


def strip_comments(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )


def parse(text: str) -> AlgebraBundle:
    try:
        doc = json.loads(strip_comments(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from None
    return load(doc)


def load(doc) -> AlgebraBundle:
    if not isinstance(doc, dict):
        raise AlgebraFileError("top level must be an object")
    for key in ("name", "basis", "arity", "twists", "bracket", "skew_complete"):
        if key not in doc:
            raise AlgebraFileError(f"missing required field {key!r}")
    name = doc["name"]
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise AlgebraFileError("basis must be a nonempty array")
    for i, b in enumerate(basis):
        if not isinstance(b, dict) or not isinstance(b.get("label"), str):
            raise AlgebraFileError(f'basis entry {i}: "label" must be a string')
        if type(b.get("parity")) is not int or b["parity"] not in (0, 1):
            raise AlgebraFileError(f'basis entry {i}: "parity" must be the integer 0 or 1')
    try:
        space = SuperSpace.from_pairs((b["label"], b["parity"]) for b in basis)
    except ValueError as exc:
        raise AlgebraFileError(f"bad basis: {exc}") from None
    for flag in ("multiplicative", "skew_complete"):
        if not isinstance(doc.get(flag, False), bool):
            raise AlgebraFileError(f'"{flag}" must be true or false')

    arity = doc["arity"]
    if not isinstance(arity, int) or arity < 2:
        raise AlgebraFileError("arity must be an integer >= 2")

    twist_docs = doc["twists"]
    multiplicative = doc.get("multiplicative", False)
    if not isinstance(twist_docs, list) or not twist_docs:
        raise AlgebraFileError("twists must be a nonempty array of matrices")
    if multiplicative:
        if len(twist_docs) != 1:
            raise AlgebraFileError("a multiplicative document carries one twist matrix")
        alpha = _matrix(space, twist_docs[0], "twist")
        twists = (alpha,) * (arity - 1)
    else:
        if len(twist_docs) != arity - 1:
            raise AlgebraFileError(f"arity {arity} needs {arity - 1} twist matrices")
        twists = tuple(
            _matrix(space, rows, f"twist {i}") for i, rows in enumerate(twist_docs)
        )

    generators = {}
    for item in _array(doc["bracket"], "bracket"):
        try:
            args = _labels(item["args"], "bracket entry args")
            value_doc = item["value"]
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad bracket entry: {exc}") from None
        if not isinstance(value_doc, dict):
            raise AlgebraFileError(f"bracket entry {args}: value must be an object")
        value = {l: _scalar(v, f"bracket {args}") for l, v in value_doc.items()}
        if len(args) != arity:
            raise AlgebraFileError(f"bracket entry {args} does not have arity {arity}")
        for label in args + tuple(value):
            if label not in space:
                raise AlgebraFileError(f"unknown basis label {label!r}")
        if args in generators:
            raise AlgebraFileError(f"duplicate bracket entry {args}")
        generators[args] = Element(value)

    if doc["skew_complete"]:
        entries = complete_skew_orbit(arity, generators, space)
    else:
        entries = {a: v for a, v in generators.items() if not v.is_zero()}
    bracket = NaryBracket(arity, entries)
    algebra = HomSuperAlgebra(space, bracket, twists, multiplicative_flag=multiplicative)
    grading = check_grading(algebra)
    if not grading.passed:
        raise AlgebraFileError(f"bracket violates the grading: {grading.summary()}")

    cochains = []
    for i, cdoc in enumerate(_array(doc.get("cochains", []), "cochains")):
        try:
            degree = cdoc["degree"]
            values = {
                _labels(item["args"], f"cochain {i} args"): _scalar(item["value"], f"cochain {i}")
                for item in _array(cdoc["values"], f"cochain {i} values")
            }
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad cochain {i}: {exc}") from None
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise AlgebraFileError(f"bad cochain {i}: degree must be an integer")
        for args in values:
            for label in args:
                if label not in space:
                    raise AlgebraFileError(f"bad cochain {i}: unknown basis label {label!r}")
        try:
            cochains.append(SuperCochain(space, degree, values))
        except ValueError as exc:
            raise AlgebraFileError(f"bad cochain {i}: {exc}") from None

    operators = []
    for i, odoc in enumerate(_array(doc.get("operators", []), "operators")):
        try:
            kind = odoc["kind"]
            rows = odoc["matrix"]
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad operator {i}: {exc}") from None
        parity = odoc.get("parity", 0)
        if type(parity) is not int or parity not in (0, 1):
            raise AlgebraFileError(f'operator {i}: "parity" must be the integer 0 or 1')
        if kind == "rota_baxter" and parity:
            raise AlgebraFileError(f'operator {i}: a rota_baxter operator needs "parity" 0')
        mat = _matrix(space, rows, f"operator {i}", parity=parity)
        weight = _scalar(odoc.get("weight", 0), f"operator {i}")
        power = odoc.get("power", 0)
        if type(power) is not int or power < 0:
            raise AlgebraFileError(f'operator {i}: "power" must be a nonnegative integer')
        try:
            operators.append(AttachedOperator(kind, mat, weight, power))
        except AlgebraFileError:
            raise
        except ValueError as exc:
            raise AlgebraFileError(f"bad operator {i}: {exc}") from None

    return AlgebraBundle(name, algebra, tuple(cochains), tuple(operators))


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------

def _matrix_doc(m: GradedLinearMap) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in m.matrix()]


def _element_doc(space: SuperSpace, e: Element) -> dict[str, str]:
    return {
        l: format_scalar(e.coeffs[l])
        for l in sorted(e.coeffs, key=space.index)
    }


def document(bundle: AlgebraBundle) -> dict:
    """Canonical dict form: fixed key order, sorted tensors, reduced scalars."""
    alg = bundle.algebra
    space = alg.space
    doc = {
        "name": bundle.name,
        "basis": [
            {"label": l, "parity": p} for l, p in zip(space.labels, space.parities)
        ],
        "arity": alg.arity,
        "multiplicative": alg.multiplicative_flag,
    }
    if alg.multiplicative_flag:
        doc["twists"] = [_matrix_doc(alg.twists[0])]
    else:
        doc["twists"] = [_matrix_doc(t) for t in alg.twists]
    doc["bracket"] = [
        {"args": list(args), "value": _element_doc(space, alg.bracket.entries[args])}
        for args in sorted(alg.bracket.entries, key=space.sort_key)
    ]
    doc["skew_complete"] = False  # emitted tensors are always fully listed
    if bundle.cochains:
        doc["cochains"] = [
            {
                "degree": c.degree,
                "values": [
                    {"args": list(args), "value": format_scalar(c.values[args])}
                    for args in sorted(c.values, key=space.sort_key)
                ],
            }
            for c in bundle.cochains
        ]
    if bundle.operators:
        doc["operators"] = [
            {
                "kind": op.kind,
                "power": op.power,
                "weight": format_scalar(op.weight),
                "parity": op.map.parity,
                "matrix": _matrix_doc(op.map),
            }
            for op in bundle.operators
        ]
    return doc


def emit(bundle: AlgebraBundle, comments: list[str] | None = None) -> str:
    text = json.dumps(document(bundle), indent=2, ensure_ascii=False)
    if comments:
        text += "\n" + "\n".join(f"# {c}" for c in comments)
    return text + "\n"
