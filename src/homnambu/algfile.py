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
import math
from fractions import Fraction

from .axioms import check_grading
from .cochains import SuperCochain
from .core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OversizedScalar,
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


def _scalar(value, where: str, seen: dict) -> Fraction:
    """The rational ``value`` names; ``seen`` holds the strings parsed so far in this document."""
    global _FRACTION_RE
    if isinstance(value, bool):
        raise AlgebraFileError(f"{where}: scalars must be integers or 'p/q' strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if value in seen:
            return seen[value]
        if _FRACTION_RE is None:
            import re

            _FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")
        if not _FRACTION_RE.match(value.strip()):
            raise AlgebraFileError(f"bad scalar {value!r} in {where}: expected 'p' or 'p/q'")
        try:
            seen[value] = scalar(value)
            return seen[value]
        except ZeroDivisionError:
            raise AlgebraFileError(f"bad scalar {value!r} in {where}: zero denominator") from None
        except ValueError as exc:  # more digits than int() converts
            raise AlgebraFileError(f"bad scalar in {where}: {exc}") from None
    raise AlgebraFileError(f"{where}: scalars must be integers or 'p/q' strings")


def _matrix(space: SuperSpace, rows, where: str, seen: dict, parity: int = 0) -> GradedLinearMap:
    d = space.dim
    if not isinstance(rows, list) or len(rows) != d or any(not isinstance(r, list) or len(r) != d for r in rows):
        raise AlgebraFileError(f"{where}: expected a {d}x{d} row-major matrix")
    values = [[_scalar(v, where, seen) for v in row] for row in rows]
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
    lines = text.splitlines()
    if "#" not in text:  # no comment line to drop
        return "\n".join(lines)
    return "\n".join(line for line in lines if not line.lstrip().startswith("#"))


def parse(text: str) -> AlgebraBundle:
    try:
        doc = json.loads(strip_comments(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from None
    except ValueError as exc:  # a bare integer with more digits than int() converts
        raise AlgebraFileError(f"bad number: {exc}") from None
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

    seen: dict[str, Fraction] = {}  # scalar strings parsed so far
    twist_docs = doc["twists"]
    multiplicative = doc.get("multiplicative", False)
    if not isinstance(twist_docs, list) or not twist_docs:
        raise AlgebraFileError("twists must be a nonempty array of matrices")
    if multiplicative:
        if len(twist_docs) != 1:
            raise AlgebraFileError("a multiplicative document carries one twist matrix")
        alpha = _matrix(space, twist_docs[0], "twist", seen)
        twists = (alpha,) * (arity - 1)
    else:
        if len(twist_docs) != arity - 1:
            raise AlgebraFileError(f"arity {arity} needs {arity - 1} twist matrices")
        twists = tuple(_matrix(space, rows, f"twist {i}", seen) for i, rows in enumerate(twist_docs))

    generators = {}
    for item in _array(doc["bracket"], "bracket"):
        try:
            args = _labels(item["args"], "bracket entry args")
            value_doc = item["value"]
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad bracket entry: {exc}") from None
        if not isinstance(value_doc, dict):
            raise AlgebraFileError(f"bracket entry {args}: value must be an object")
        value = {l: _scalar(v, f"bracket {args}", seen) for l, v in value_doc.items()}
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
                _labels(item["args"], f"cochain {i} args"): _scalar(item["value"], f"cochain {i}", seen)
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
        mat = _matrix(space, rows, f"operator {i}", seen, parity=parity)
        weight = _scalar(odoc.get("weight", 0), f"operator {i}", seen)
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

def _ratio(numerator: int, scale: int) -> str:
    """numerator/scale as a quoted reduced scalar, "p" or "p/q"."""
    g = math.gcd(numerator, scale)
    try:
        return f'"{numerator // g}"' if g == scale else f'"{numerator // g}/{scale // g}"'
    except ValueError:  # more digits than int() converts
        raise OversizedScalar from None


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array, or object of '"key": value' items, at ``depth``, laid out as json.dumps(indent=2) lays it out."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def emit(bundle: AlgebraBundle, comments: list[str] | None = None) -> str:
    """The canonical document, then ``comments`` as '#' lines.

    Fixed key order, tensors sorted by basis index, reduced scalars: byte for
    byte what ``json.dumps(doc, indent=2, ensure_ascii=False)`` writes for
    that document, written directly in its fixed layout (``indent`` forces
    the pure-Python encoder), each tensor scalar formatted from its
    numerator and scale.
    """
    alg, space = bundle.algebra, bundle.algebra.space
    index = {l: i for i, l in enumerate(space.labels)}
    q = {l: json.dumps(l, ensure_ascii=False) for l in space.labels}
    obj = lambda depth, **fields: _block([f'"{k}": {v}' for k, v in fields.items()], depth, "{}")
    labels = lambda args, depth: _block([q[a] for a in args], depth)

    def matrix(m, depth):  # rows of <e_i | M e_j>
        scale, cols = m.integer_columns
        rows = [[_ratio(cols.get(c, {}).get(r, 0), scale) for c in space.labels] for r in space.labels]
        return _block([_block(row, depth + 1) for row in rows], depth)

    def entry(args, cell, scale):
        value = _block([f"{q[l]}: {_ratio(cell[l], scale)}" for l in sorted(cell, key=index.get)], 3, "{}")
        return obj(2, args=labels(args, 3), value=value)

    scale, cells = alg.bracket.table
    fields = dict(
        basis=_block([obj(2, label=q[l], parity=p) for l, p in zip(space.labels, space.parities)], 1),
        arity=alg.arity,
        multiplicative=json.dumps(alg.multiplicative_flag),
        twists=_block([matrix(t, 2) for t in (alg.twists[:1] if alg.multiplicative_flag else alg.twists)], 1),
        bracket=_block([entry(a, cells[a], scale) for a in sorted(cells, key=lambda a: [index[l] for l in a])], 1),
        skew_complete="false",  # emitted tensors are always fully listed
    )
    value = lambda c, args: obj(4, args=labels(args, 5), value=f'"{format_scalar(c.values[args])}"')
    if bundle.cochains:
        fields["cochains"] = _block([
            obj(2, degree=c.degree, values=_block([value(c, a) for a in sorted(c.values, key=space.sort_key)], 3))
            for c in bundle.cochains
        ], 1)
    if bundle.operators:
        fields["operators"] = _block([
            obj(2, kind=json.dumps(op.kind, ensure_ascii=False), power=op.power,
                weight=f'"{format_scalar(op.weight)}"', parity=op.map.parity, matrix=matrix(op.map, 3))
            for op in bundle.operators
        ], 1)
    name = json.dumps({"name": bundle.name}, indent=2, ensure_ascii=False)[2:-2]  # any JSON value, at depth 1
    text = "{\n" + name + ",\n" + obj(0, **fields)[2:]
    if comments:
        text += "\n" + "\n".join(f"# {c}" for c in comments)
    return text + "\n"
