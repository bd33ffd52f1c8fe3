"""The document loader as it was before it read scalars as integer pairs.

:func:`load` checked and converted each scalar to a ``Fraction`` through
:func:`scalar` (one ``lru_cache`` shared by every document), formatted each
bracket entry's error place up front, tested labels against the space's
tuple, built the integer table from the ``Fraction`` values
(:func:`integer_table`) and checked the grading entry by entry
(:func:`check_grading`); :func:`strip_comments` always ran its regular
expression.  They are kept verbatim, with the scalar parser, the table
builder and the grading check they called, as the reference the loader is
compared with: an equal bundle, or the same exception with the same text.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from fractions import Fraction

from homnambu.algfile import AlgebraBundle, AlgebraFileError, AttachedOperator
from homnambu.axioms import DEFAULT_COUNTEREXAMPLE_CAP, CheckReport, _Collector
from homnambu.cochains import SuperCochain
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    ScalarSyntaxError,
    SuperSpace,
    complete_skew_orbit,
    element_at,
)


def scalar(value) -> Fraction:
    """Coerce ints, Fractions and 'p' or 'p/q' strings to a reduced exact rational: the one scalar parser."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


_SCALAR = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)  # ASCII digits and spaces: int() and strip() read more


@functools.lru_cache(maxsize=1024)  # documents repeat few distinct strings many times
def _parse_scalar(text: str) -> Fraction:
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ScalarSyntaxError("expected 'p' or 'p/q'")
    return Fraction(int(match[1]), int(match[2] or 1))  # int()'s digit limit bounds the work


def integer_table(coefficients: Mapping) -> tuple[int, dict]:
    """(scale, cells): {key: {label: Fraction}} dicts as integer numerators over their least common denominator.

    The one way from rationals into the integer table algebra; the least
    scale makes the form of a tensor unique.  Zero values are dropped: a key
    with only zeros keeps an empty cell.
    """
    scale = math.lcm(1, *(c.denominator for cs in coefficients.values() for c in cs.values()))
    return scale, {
        k: {l: c.numerator * (scale // c.denominator) for l, c in cs.items() if c} for k, cs in coefficients.items()
    }


def check_grading(alg: HomSuperAlgebra, cap: int = DEFAULT_COUNTEREXAMPLE_CAP) -> CheckReport:
    """Output parity of every stored entry equals the mod-2 sum of input parities."""
    space, table = alg.space, alg.bracket.table
    parity = dict(zip(space.labels, space.parities))
    want = {args: sum(parity[a] for a in args) % 2 for args in table[1]}
    bad = [args for args, value in table[1].items() if any(parity[l] != want[args] for l in value)]
    col = _Collector("grading", cap)
    col.tick(len(want))
    for args in sorted(bad, key=space.sort_key):
        col.fail(args, element_at(table, args), Element(), note=f"expected parity {want[args]}")
    return col.report()


def _scalar(value, where: str) -> Fraction:
    """The rational ``value`` names: an integer or a string in :func:`core.scalar`'s grammar."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise AlgebraFileError(f"{where}: scalars must be integers or 'p/q' strings")
    try:
        return scalar(value)
    except ZeroDivisionError:
        raise AlgebraFileError(f"bad scalar {value!r} in {where}: zero denominator") from None
    except ScalarSyntaxError as exc:
        raise AlgebraFileError(f"bad scalar {value!r} in {where}: {exc}") from None
    except ValueError as exc:  # more digits than int() converts
        raise AlgebraFileError(f"bad scalar in {where}: {exc}") from None


def _matrix(space: SuperSpace, rows, where: str, parity: int = 0) -> GradedLinearMap:
    d = space.dim
    if not isinstance(rows, list) or len(rows) != d or any(not isinstance(r, list) or len(r) != d for r in rows):
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
    """``text`` less its comment lines, whose first character other than a space or a tab is '#', with "\\n" breaks."""
    # Only CR LF, CR and LF break a line: a JSON string may hold U+0085, U+2028 or U+2029 raw.
    text = "\n" + text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")  # a last break ends no line
    return re.sub(r"\n[ \t]*#[^\n]*", "", text)[1:]  # each comment line goes with the break before it


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
        twists = tuple(_matrix(space, rows, f"twist {i}") for i, rows in enumerate(twist_docs))

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
        generators[args] = value

    table = integer_table(generators)
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
                value = _scalar(item["value"], f"cochain {i}")
                if args in values:
                    raise AlgebraFileError(f"bad cochain {i}: duplicate entry {args}")
                values[args] = value
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
        operators.append(AttachedOperator(kind, mat, weight, power))

    return AlgebraBundle(name, algebra, tuple(cochains), tuple(operators))
