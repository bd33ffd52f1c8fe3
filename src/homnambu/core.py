"""Exact substrate for Z2-graded n-ary algebras given by structure constants.

Scalars are exact rationals, ``fractions.Fraction`` at the API; tensors and maps
hold integer tables inside (:func:`integer_table`), so equality of algebraic
expressions is decidable and all identity checks in the sibling modules are exact.
All values are immutable; the functions here are pure and safe to call concurrently.

Conventions:

* a parity is the int 0 (even) or 1 (odd), added mod 2;
* sign-returning helpers take 1-based positions, matching the usual way
  transpositions "at position i" are written in the algebra literature;
* a linear map acts on column vectors: ``columns[label]`` is the image of the
  basis vector ``label``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce ints, Fractions and 'p' or 'p/q' strings (through :func:`parse_ratio`) to a reduced exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*parse_ratio(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ScalarSyntaxError(ValueError):
    """A string outside the scalar grammar."""


_SCALAR = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)  # ASCII digits and spaces: int() and strip() read more


def parse_ratio(text: str) -> tuple[int, int]:
    """A 'p' or 'p/q' string as (numerator, denominator) in lowest terms, denominator > 0: the one scalar grammar."""
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ScalarSyntaxError("expected 'p' or 'p/q'")
    return Fraction(int(match[1]), int(match[2] or 1)).as_integer_ratio()  # int()'s digit limit bounds the work


class OversizedScalar(ValueError):
    """A computed scalar with more digits than ``int`` converts to text."""

    def __init__(self):
        super().__init__(f"an output scalar has more than {sys.get_int_max_str_digits()} digits")


def format_ratio(numerator: int, denominator: int) -> str:
    """numerator/denominator (denominator > 0) in lowest terms as 'p' or 'p/q': the one way a scalar becomes text."""
    g = math.gcd(numerator, denominator)
    try:
        return str(numerator // g) if g == denominator else f"{numerator // g}/{denominator // g}"
    except ValueError:  # more digits than int() converts
        raise OversizedScalar from None


def format_scalar(value: Fraction) -> str:
    """Render as 'p' or 'p/q' with q > 0 and gcd(p, q) = 1."""
    return format_ratio(value.numerator, value.denominator)


def integer_table(coefficients: Mapping) -> tuple[int, dict]:
    """(scale, cells): {key: {label: Fraction}} dicts as integer numerators over their least common denominator.

    The one way from rationals into the integer table algebra; the least
    scale makes the form of a tensor unique.  Zero values are dropped: a key
    with only zeros keeps an empty cell.
    """
    return ratio_table({k: {l: (c.numerator, c.denominator) for l, c in cs.items()} for k, cs in coefficients.items()})


def ratio_table(ratios: Mapping) -> tuple[int, dict]:
    """:func:`integer_table` of {key: {label: (numerator, denominator)}} pairs in lowest terms, denominator > 0."""
    scale = math.lcm(1, *{q for cs in ratios.values() for _, q in cs.values()})
    return scale, {k: {l: p * (scale // q) for l, (p, q) in cs.items() if p} for k, cs in ratios.items()}


def element_at(table: tuple[int, dict], key) -> "Element":
    """The value of an integer table (:func:`integer_table`) at ``key`` as an Element, zero where it has none."""
    scale, cells = table
    return Element({l: Fraction(v, scale) for l, v in cells.get(key, {}).items()})


def _least_scale(table: tuple[int, dict]) -> tuple[int, dict]:
    """An integer table with no zero numerators, its scale and numerators divided by their gcd: its unique form."""
    scale, cells = table
    g = math.gcd(scale, *(v for cell in cells.values() for v in cell.values()))
    if g > 1:
        cells = {x: {l: v // g for l, v in cell.items()} for x, cell in cells.items()}
    return scale // g, cells


def _sum_tables(tables):
    """Add integer tables cell by cell over the least common multiple of their scales; zero cells are dropped."""
    tables = list(tables)
    scale = math.lcm(1, *(s for s, _ in tables))
    total: dict[tuple, dict] = {}
    for s, cells in tables:
        lift = scale // s
        for x, value in cells.items():
            cell = total.setdefault(x, {})
            for r, c in value.items():
                cell[r] = cell.get(r, 0) + c * lift
    return scale, _nonzero(total)


def _nonzero(cells) -> dict:
    """``cells`` without zero numerators and without the cells left empty."""
    return {x: kept for x, cell in cells.items() if (kept := {r: v for r, v in cell.items() if v})}


class OrbitConflict(ValueError):
    """A partial tensor forces two different values on one index tuple."""

    def __init__(self, args, expected, found):
        self.args_tuple = tuple(args)
        self.expected = expected
        self.found = found
        super().__init__(
            f"inconsistent values on {self.args_tuple}: "
            f"orbit forces {expected}, found {found}"
        )


class FixedPointViolation(ValueError):
    """An argument tuple required to be fixed by the twist is not."""


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields, in order.

    What ``@dataclass(frozen=True)`` makes, without its import cost: class
    attributes are the defaults, ``__post_init__`` runs last in ``__init__``,
    and equality is field by field, within one class only.  The hash freezes
    dict-valued fields, a table's cells, recursively.  As with ``dataclass``,
    ``__init__``, ``__eq__``, ``__hash__``, ``__repr__`` and ``__getstate__``
    are made only where the class defines none; a class's own ``__init__``
    writes the fields into the instance dict, as a ``functools.cached_property``
    view writes itself there, and pickles and copies leave such views out.
    Assigning or deleting an attribute always raises.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(fields, args))
        if len(args) > len(fields) or given.keys() & kwargs or kwargs.keys() - fields:
            raise TypeError(f"{cls.__qualname__}() got too many, repeated or unknown arguments")
        given = {**defaults, **given, **kwargs}
        for f in fields:
            if f not in given:
                raise TypeError(f"{cls.__qualname__}() missing argument {f!r}")
        vars(self).update(given)
        post_init(self)

    def values(self):
        return tuple(getattr(self, f) for f in fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(_frozen(values(self)))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def __getstate__(self):
        return {f: getattr(self, f) for f in fields}

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __getstate__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls


def _frozen(value):
    """``value`` with each dict in it, through tuples, a frozenset of its items: hashable, and equal where equal."""
    if isinstance(value, dict):
        return frozenset((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(_frozen(v) for v in value)
    return value


def _bare(cls, **fields):
    """An instance of the record class ``cls`` holding ``fields``, made without its constructor."""
    value = object.__new__(cls)
    vars(value).update(fields)
    return value


# ---------------------------------------------------------------------------
# Graded spaces and elements
# ---------------------------------------------------------------------------

@record
class SuperSpace:
    """Finite ordered homogeneous basis with Z2 parities."""

    labels: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")
        if any(type(p) is not int or p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "SuperSpace":
        pairs = list(pairs)
        return cls(tuple(l for l, _ in pairs), tuple(p for _, p in pairs))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def dim0(self) -> int:
        return self.parities.count(0)

    @property
    def dim1(self) -> int:
        return self.parities.count(1)

    def parity(self, label: str) -> int:
        return self.parities[self.index(label)]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def tuples(self, k: int):
        """All k-tuples of basis labels in lexicographic (basis) order."""
        return itertools.product(self.labels, repeat=k)

    def basis_element(self, label: str) -> "Element":
        self.index(label)
        return Element({label: ONE})

    def sort_key(self, args: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index(a) for a in args)


@record
class Element:
    """Sparse vector: map from basis label to nonzero Scalar coefficient.

    Arithmetic returns new instances and zero coefficients are never stored.
    """

    coeffs: dict

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None):
        clean = {}
        if coeffs:
            for label, c in coeffs.items():
                c = scalar(c)
                if c != 0:
                    clean[label] = c
        vars(self).update(coeffs=clean)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for label, c in other.coeffs.items():
            s = out.get(label, ZERO) + c
            if s:
                out[label] = s
            else:
                out.pop(label, None)
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element({l: -c for l, c in self.coeffs.items()})

    def scale(self, a) -> "Element":
        a = scalar(a)
        if a == 0:
            return Element()
        return Element({l: a * c for l, c in self.coeffs.items()})

    def parity_in(self, space: SuperSpace) -> int | None:
        """Parity if homogeneous (zero counts as either; reported as 0), else None."""
        seen = {space.parity(l) for l in self.coeffs}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({format_scalar(c)})*{l}" for l, c in sorted(self.coeffs.items()))


# ---------------------------------------------------------------------------
# Koszul sign calculus
# ---------------------------------------------------------------------------

def adjacent_transposition_sign(parities: Sequence[int], i: int) -> int:
    """Sign -(-1)^(p_i * p_{i+1}) picked up when swapping slots i, i+1 (1-based)."""
    if not 1 <= i < len(parities):
        raise IndexError(f"position {i} out of range for {len(parities)} slots")
    return 1 if parities[i - 1] * parities[i] else -1


def koszul_sign(parities: Sequence[int], perm: Sequence[int]) -> int:
    """Sign of reordering graded x_1..x_n as x_perm[0], x_perm[1], .. (1-based).

    (-1)^(sum of p_a * p_b over the inversions a < b of ``perm``): each odd
    element passing another odd one costs a sign.
    """
    odd = [i for i in perm if parities[i - 1]]
    crossings = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1 :])
    return -1 if crossings % 2 else 1


def segment_degree(parities: Sequence[int], i: int, j: int) -> int:
    """Mod-2 sum of parities at 1-based positions i..j inclusive (empty if i > j)."""
    if i > j:
        return 0
    return sum(parities[i - 1 : j]) % 2


def pair_extraction_sign(parities: Sequence[int], i: int, j: int) -> int:
    """Koszul sign for pulling slots i < j (1-based) out of a graded tuple.

    The exponent is |X|_{j+1..n} * (p_i + p_j) + p_i * |X|_{i+1..j-1}, i.e. the
    parity crossings made when slot j moves past the tail and slot i past the
    span between them.
    """
    n = len(parities)
    if not (1 <= i < j <= n):
        raise IndexError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    tail = segment_degree(parities, j + 1, n)
    between = segment_degree(parities, i + 1, j - 1)
    exponent = tail * (parities[i - 1] + parities[j - 1]) + parities[i - 1] * between
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# Graded linear maps
# ---------------------------------------------------------------------------

@record
class GradedLinearMap:
    """Linear endomorphism with a declared parity.

    Even maps preserve the grading, odd maps flip it; construction rejects
    images violating the declared parity.  The map is its nonzero columns as
    an integer table, ``integer_columns`` (scale, {label: {row: numerator}}),
    at its least scale; ``columns`` gives every column as an element on
    first read.
    """

    space: SuperSpace
    parity: int
    integer_columns: tuple[int, dict]

    def __init__(self, space: SuperSpace, parity: int, columns: Mapping[str, Element]):
        parsed = lambda img: img.coeffs if isinstance(img, Element) else {r: scalar(c) for r, c in img.items()}
        self._fill(space, parity, {label: parsed(img) for label, img in columns.items()})

    def _fill(self, space: SuperSpace, parity: int, columns: dict) -> "GradedLinearMap":
        """Store ``columns``, {label: {row: Fraction}}, as integer columns; each image must have the declared parity."""
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        order = sorted(columns, key=space.index)  # unknown labels raise
        scale, cols = integer_table({label: columns[label] for label in order})
        for label, img in cols.items():
            want = (space.parity(label) + parity) % 2
            for out_label in img:
                if space.parity(out_label) != want:
                    raise ValueError(
                        f"map declared parity {parity} but {label} "
                        f"(parity {space.parity(label)}) hits {out_label} "
                        f"(parity {space.parity(out_label)})"
                    )
        vars(self).update(space=space, parity=parity, integer_columns=(scale, _nonzero(cols)))
        return self

    @classmethod
    def of_table(cls, space: SuperSpace, parity: int, table: tuple[int, dict]) -> "GradedLinearMap":
        """The map of integer columns with no zero numerators, its scale reduced to the least one."""
        return _bare(cls, space=space, parity=parity, integer_columns=_least_scale(table))

    @classmethod
    def from_matrix(cls, space: SuperSpace, rows, parity: int | None = None) -> "GradedLinearMap":
        """Build from a dense row-major matrix: rows[i][j] = <e_i | M e_j>.

        The parity defaults to that of the first nonzero entry, in column-major order.
        """
        d = space.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"matrix must be {d}x{d}")
        cols = {c: {r: scalar(rows[i][j]) for i, r in enumerate(space.labels)} for j, c in enumerate(space.labels)}
        if parity is None:
            nonzero = ((r, c) for c, col in cols.items() for r, v in col.items() if v)
            parity = next(((space.parity(r) + space.parity(c)) % 2 for r, c in nonzero), 0)
        return _bare(cls)._fill(space, parity, cols)  # each entry parsed once, above

    @classmethod
    def identity(cls, space: SuperSpace) -> "GradedLinearMap":
        return cls.of_table(space, 0, (1, {l: {l: 1} for l in space.labels}))

    @classmethod
    def zero(cls, space: SuperSpace, parity: int = 0) -> "GradedLinearMap":
        return cls.of_table(space, parity, (1, {}))

    @functools.cached_property
    def columns(self) -> dict:
        """The image of every basis vector as {label: Element}."""
        return {l: element_at(self.integer_columns, l) for l in self.space.labels}

    def matrix(self) -> list[list[Fraction]]:
        scale, cols = self.integer_columns
        labels = self.space.labels
        return [[Fraction(cols.get(c, {}).get(r, 0), scale) for c in labels] for r in labels]

    def apply(self, elem: Element) -> Element:
        out = Element()
        for label, c in elem.coeffs.items():
            out = out + self.apply_basis(label).scale(c)
        return out

    def apply_basis(self, label: str) -> Element:
        self.space.index(label)  # unknown labels raise
        return self.columns[label]

    def is_zero(self) -> bool:
        return not self.integer_columns[1]

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        _same_space(self, other)
        if self.parity != other.parity and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add maps of different parity")
        parity = other.parity if self.is_zero() else self.parity
        return GradedLinearMap.of_table(self.space, parity, _sum_tables([self.integer_columns, other.integer_columns]))

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self + other.scale(-1)

    def scale(self, a) -> "GradedLinearMap":
        a = scalar(a)
        if a == 0:
            return GradedLinearMap.zero(self.space, self.parity)
        scale, cols = self.integer_columns
        cols = {l: {r: v * a.numerator for r, v in col.items()} for l, col in cols.items()}
        return GradedLinearMap.of_table(self.space, self.parity, (scale * a.denominator, cols))

    def __repr__(self):
        entries = ", ".join(f"{l} -> {self.columns[l]!r}" for l in self.space.labels if self.columns[l])
        return f"GradedLinearMap(parity={self.parity}, {entries or '0'})"


def _same_space(f: GradedLinearMap, g: GradedLinearMap):
    if f.space != g.space:
        raise ValueError("maps live on different spaces")


def map_compose(f: GradedLinearMap, g: GradedLinearMap) -> GradedLinearMap:
    """f after g; parities add mod 2."""
    _same_space(f, g)
    (s, fc), (t, gc) = f.integer_columns, g.integer_columns
    cols = {}
    for c, image in gc.items():
        col = cols[c] = {}
        for r, v in image.items():
            for out, w in fc.get(r, {}).items():
                col[out] = col.get(out, 0) + v * w
    return GradedLinearMap.of_table(f.space, (f.parity + g.parity) % 2, (s * t, _nonzero(cols)))


def map_power(f: GradedLinearMap, k: int) -> GradedLinearMap:
    """f composed with itself k times, by repeated squaring: at most 2*floor(log2 k) compositions."""
    if k < 0:
        raise ValueError("negative powers are not defined here")
    if k < 2:
        return f if k else GradedLinearMap.identity(f.space)
    power = map_power(map_compose(f, f), k // 2)
    return map_compose(f, power) if k % 2 else power


def supercommutator_maps(d1: GradedLinearMap, d2: GradedLinearMap) -> GradedLinearMap:
    """d1 o d2 - (-1)^(|d1||d2|) d2 o d1."""
    _same_space(d1, d2)
    sign = -1 if d1.parity * d2.parity else 1
    return map_compose(d1, d2) - map_compose(d2, d1).scale(sign)


# ---------------------------------------------------------------------------
# Structure-constant brackets
# ---------------------------------------------------------------------------

@record
class NaryBracket:
    """Arity-n multilinear product stored as a sparse structure-constant tensor.

    Its form is the integer table ``table`` (:func:`integer_table`), made once
    at construction; ``entries`` gives the same tensor as elements on first
    read.  Index tuples absent from it evaluate to zero.  Graded-evenness is a
    property verified by the axioms module, not forced at construction, so
    deliberately broken tensors can be built and diagnosed.
    """

    arity: int
    table: tuple[int, dict]

    def __init__(self, arity: int, entries: Mapping[tuple[str, ...], Element] | None = None):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        coeffs = {}
        for args, value in (entries or {}).items():
            if len(args) != arity:
                raise ValueError(f"entry {tuple(args)} does not have arity {arity}")
            value = value if isinstance(value, Element) else Element(value)
            if value:
                coeffs[tuple(args)] = value.coeffs
        vars(self).update(arity=arity, table=integer_table(coeffs))

    @classmethod
    def of_table(cls, arity: int, table: tuple[int, dict]) -> "NaryBracket":
        """The bracket of an integer table with no zero numerators, its scale reduced to the least one."""
        return _bare(cls, arity=arity, table=_least_scale(table))

    @functools.cached_property
    def entries(self) -> dict:
        """The tensor as {args: Element}."""
        return {args: element_at(self.table, args) for args in self.table[1]}

    def value(self, args: Sequence[str]) -> Element:
        return self.entries.get(tuple(args), Element())

    def is_zero(self) -> bool:
        return not self.table[1]


@record
class HomSuperAlgebra:
    """A graded space, an n-bracket and the family of n-1 even twist maps."""

    space: SuperSpace
    bracket: NaryBracket
    twists: tuple[GradedLinearMap, ...]
    multiplicative_flag: bool = False

    def __post_init__(self):
        if len(self.twists) != self.bracket.arity - 1:
            raise ValueError(
                f"arity {self.bracket.arity} needs {self.bracket.arity - 1} twists, "
                f"got {len(self.twists)}"
            )
        for t in self.twists:
            if t.parity != 0:
                raise ValueError("twist maps must be even")
            if t.space != self.space:
                raise ValueError("twist map on a different space")
        if self.multiplicative_flag and any(t != self.twists[0] for t in self.twists[1:]):
            raise ValueError("multiplicative algebras carry one shared twist")

    @property
    def arity(self) -> int:
        return self.bracket.arity

    @functools.cached_property
    def _nambu_kernel(self):
        """The bracket's :func:`axioms._leibniz_kernel`, twist j before slot j and j-1 after it; built on first read."""
        from .axioms import _leibniz_kernel
        twists = [t.integer_columns for t in self.twists]
        return _leibniz_kernel(self.bracket.table, self.space.labels, self.space, twists, [None] + twists)

    @property
    def twist(self) -> GradedLinearMap:
        """The shared twist of a multiplicative algebra."""
        if not self.multiplicative_flag:
            raise ValueError("algebra does not declare a single shared twist")
        return self.twists[0]


def multiplicative_algebra(space: SuperSpace, bracket: NaryBracket, alpha: GradedLinearMap) -> HomSuperAlgebra:
    return HomSuperAlgebra(
        space, bracket, (alpha,) * (bracket.arity - 1), multiplicative_flag=True
    )


def eval_tensor(tensor: "NaryBracket", space: SuperSpace, args: Sequence[Element]) -> Element:
    """Multilinear extension of a structure-constant tensor to arbitrary elements."""
    if len(args) != tensor.arity:
        raise ValueError(f"expected {tensor.arity} arguments, got {len(args)}")
    for e in args:
        for label in e.coeffs:
            if label not in space:
                raise KeyError(f"unknown basis label {label!r}")
    out = {}
    for base, coeff in multilinear_terms(tensor.entries, args):
        for label, c in base.coeffs.items():
            out[label] = out.get(label, ZERO) + coeff * c
    return Element(out)


def multilinear_terms(values: Mapping, args: Sequence[Element]):
    """(values[key], coefficient product) for every basis pick ``key`` of ``args`` that ``values`` holds.

    The one loop behind the multilinear extension of brackets and cochains.
    """
    for combo in itertools.product(*(e.coeffs.items() for e in args)):
        base = values.get(tuple(label for label, _ in combo))
        if base is not None:
            coeff = ONE
            for _, c in combo:
                coeff *= c
            yield base, coeff


def eval_bracket(alg: HomSuperAlgebra, args: Sequence[Element]) -> Element:
    """Multilinear extension of the algebra's structure constants."""
    return eval_tensor(alg.bracket, alg.space, args)


# ---------------------------------------------------------------------------
# Skew-orbit completion
# ---------------------------------------------------------------------------

def complete_skew_orbit(
    arity: int,
    table: tuple[int, dict],
    space: SuperSpace,
    swaps: Sequence[int] | None = None,
) -> tuple[int, dict]:
    """Extend a generating integer table (:func:`integer_table`) to every index tuple its orbits reach.

    The orbit is generated by the adjacent transpositions at the 1-based
    positions ``swaps`` (all of 1..arity-1 by default); each carries the
    Koszul skew sign, a sign flip of the numerators.  A tuple whose orbit
    forces v = -v with v nonzero, or two generators (an empty cell is zero)
    disagreeing on one orbit, raise :class:`OrbitConflict` with both values
    as elements.  Empty cells are dropped from the result.
    """
    if swaps is None:
        swaps = range(1, arity)
    scale, generators = table
    cells = {}
    worklist = []

    def insert(args, cell):
        existing = cells.get(args)
        if existing is None:
            cells[args] = cell
            worklist.append((args, cell))
        elif existing != cell:
            raise OrbitConflict(args, *(element_at((scale, {args: c}), args) for c in (existing, cell)))

    for args, cell in generators.items():
        insert(tuple(args), cell)
    while worklist:
        args, cell = worklist.pop()
        parities = [space.parity(a) for a in args]
        for i in swaps:
            swapped = args[: i - 1] + (args[i], args[i - 1]) + args[i + 1 :]
            insert(swapped, cell if adjacent_transposition_sign(parities, i) > 0 else {l: -v for l, v in cell.items()})
    return scale, {args: c for args, c in cells.items() if c}
