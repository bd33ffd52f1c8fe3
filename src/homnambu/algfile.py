"""The on-disk algebra format: UTF-8 JSON plus '#' comment lines.

Scalars are integers or fraction strings "p/q" (the "/q" omitted when the
denominator is 1) in :func:`core.parse_ratio`'s grammar, which ``catalog:``
parameters share; no floating point appears anywhere.  A document carries the
basis with parities, the twist matrices (one matrix with ``"multiplicative":
true``, or a full list of arity-1 matrices), the bracket tensor, optional
cochains and optional operators.  With ``skew_complete`` true the listed
bracket entries are a generating set and the loader fills their skew orbits;
with false the tensor is taken verbatim (nested brackets are not skew).

Emission is canonical: fixed key order, entries sorted by basis index, reduced
scalars.  ``emit(parse(text))`` is byte-identical for canonical input.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .axioms import check_grading
from .cochains import SuperCochain
from .core import (
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    ScalarSyntaxError,
    SuperSpace,
    complete_skew_orbit,
    format_ratio,
    parse_ratio,
    ratio_table,
    record,
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


def _pair(value, memo: dict, where) -> tuple[int, int]:
    """An integer or :func:`core.parse_ratio` string as a reduced pair, read once per ``memo``; ``where()`` in errors."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise AlgebraFileError(f"{where()}: scalars must be integers or 'p/q' strings")
    if value not in memo:
        try:
            memo[value] = parse_ratio(value) if isinstance(value, str) else (value, 1)
        except ZeroDivisionError:
            raise AlgebraFileError(f"bad scalar {value!r} in {where()}: zero denominator") from None
        except ScalarSyntaxError as exc:
            raise AlgebraFileError(f"bad scalar {value!r} in {where()}: {exc}") from None
        except ValueError as exc:  # more digits than int() converts
            raise AlgebraFileError(f"bad scalar in {where()}: {exc}") from None
    return memo[value]


def _matrix(space: SuperSpace, rows, memo: dict, where: str, parity: int = 0) -> GradedLinearMap:
    d = space.dim
    if not isinstance(rows, list) or len(rows) != d or any(not isinstance(r, list) or len(r) != d for r in rows):
        raise AlgebraFileError(f"{where}: expected a {d}x{d} row-major matrix")
    values = [[Fraction(*_pair(v, memo, lambda: where)) for v in row] for row in rows]
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
    """``text`` less its comment lines, whose first character other than a space or a tab is '#', with "\\n" breaks."""
    # Only CR LF, CR and LF break a line: a JSON string may hold U+0085, U+2028 or U+2029 raw.
    text = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")  # a last break ends no line
    return re.sub(r"\n[ \t]*#[^\n]*", "", "\n" + text)[1:] if "#" in text else text  # each with the break before it


def parse(text: str) -> AlgebraBundle:
    import json  # loaded only by commands that read or write a document
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
    if not isinstance(name, str):
        raise AlgebraFileError('"name" must be a string')
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

    memo = {}  # each distinct scalar string is parsed once
    twist_docs = doc["twists"]
    multiplicative = doc.get("multiplicative", False)
    if not isinstance(twist_docs, list) or not twist_docs:
        raise AlgebraFileError("twists must be a nonempty array of matrices")
    if multiplicative:
        if len(twist_docs) != 1:
            raise AlgebraFileError("a multiplicative document carries one twist matrix")
        twists = (_matrix(space, twist_docs[0], memo, "twist"),) * (arity - 1)
    else:
        if len(twist_docs) != arity - 1:
            raise AlgebraFileError(f"arity {arity} needs {arity - 1} twist matrices")
        twists = tuple(_matrix(space, rows, memo, f"twist {i}") for i, rows in enumerate(twist_docs))

    index = {l: i for i, l in enumerate(space.labels)}
    generators = {}
    for item in _array(doc["bracket"], "bracket"):
        try:
            args = _labels(item["args"], "bracket entry args")
            value_doc = item["value"]
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad bracket entry: {exc}") from None
        if not isinstance(value_doc, dict):
            raise AlgebraFileError(f"bracket entry {args}: value must be an object")
        value = {l: _pair(v, memo, lambda: f"bracket {args}") for l, v in value_doc.items()}
        if len(args) != arity:
            raise AlgebraFileError(f"bracket entry {args} does not have arity {arity}")
        for label in args + tuple(value):
            if label not in index:
                raise AlgebraFileError(f"unknown basis label {label!r}")
        if args in generators:
            raise AlgebraFileError(f"duplicate bracket entry {args}")
        generators[args] = value

    table = ratio_table(generators)
    if doc["skew_complete"]:
        table = complete_skew_orbit(arity, table, space)
    else:
        table = table[0], {a: cell for a, cell in table[1].items() if cell}
    bracket = NaryBracket.of_table(arity, table)
    algebra = HomSuperAlgebra(space, bracket, twists, multiplicative_flag=multiplicative)
    grading = check_grading(algebra)
    if not grading.passed:
        raise AlgebraFileError(f"bracket violates the grading: {grading.summary()}")

    cochains = []
    for i, cdoc in enumerate(_array(doc.get("cochains", []), "cochains")):
        try:
            degree = cdoc["degree"]
            values = {}
            for item in _array(cdoc["values"], f"cochain {i} values"):
                args = _labels(item["args"], f"cochain {i} args")
                value = Fraction(*_pair(item["value"], memo, lambda: f"cochain {i}"))
                if args in values:
                    raise AlgebraFileError(f"bad cochain {i}: duplicate entry {args}")
                values[args] = value
        except (TypeError, KeyError) as exc:
            raise AlgebraFileError(f"bad cochain {i}: {exc}") from None
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise AlgebraFileError(f"bad cochain {i}: degree must be an integer")
        for args in values:
            for label in args:
                if label not in index:
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
        mat = _matrix(space, rows, memo, f"operator {i}", parity=parity)
        weight = Fraction(*_pair(odoc.get("weight", 0), memo, lambda: f"operator {i}"))
        power = odoc.get("power", 0)
        if type(power) is not int or power < 0:
            raise AlgebraFileError(f'operator {i}: "power" must be a nonnegative integer')
        operators.append(AttachedOperator(kind, mat, weight, power))

    return AlgebraBundle(name, algebra, tuple(cochains), tuple(operators))


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------

# json.dumps(s, ensure_ascii=False) of a string: '"' and '\\' escaped, the five short escapes, \u00xx for other controls
_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)} | {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _ratio(numerator: int, scale: int) -> str:
    """numerator/scale as a quoted reduced scalar, "p" or "p/q"."""
    return f'"{format_ratio(numerator, scale)}"'


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
    numerator and scale and each string quoted through ``_ESCAPES``.
    """
    alg, space = bundle.algebra, bundle.algebra.space
    index = {l: i for i, l in enumerate(space.labels)}
    quoted = lambda s: '"' + s.translate(_ESCAPES) + '"'
    q = {l: quoted(l) for l in space.labels}
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
        multiplicative="true" if alg.multiplicative_flag else "false",
        twists=_block([matrix(t, 2) for t in (alg.twists[:1] if alg.multiplicative_flag else alg.twists)], 1),
        bracket=_block([entry(a, cells[a], scale) for a in sorted(cells, key=lambda a: [index[l] for l in a])], 1),
        skew_complete="false",  # emitted tensors are always fully listed
    )
    value = lambda c, args: obj(4, args=labels(args, 5), value=_ratio(c.table[1][args][0], c.table[0]))
    if bundle.cochains:
        fields["cochains"] = _block([
            obj(2, degree=c.degree, values=_block([value(c, a) for a in sorted(c.table[1], key=space.sort_key)], 3))
            for c in bundle.cochains
        ], 1)
    if bundle.operators:
        fields["operators"] = _block([
            obj(2, kind=quoted(op.kind), power=op.power,
                weight=_ratio(op.weight.numerator, op.weight.denominator), parity=op.map.parity,
                matrix=matrix(op.map, 3))
            for op in bundle.operators
        ], 1)
    return "\n".join([obj(0, name=quoted(bundle.name), **fields), *(f"# {c}" for c in comments or ())]) + "\n"
