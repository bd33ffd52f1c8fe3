"""Exact substrate for Z2-graded n-ary algebras given by structure constants.

Everything is computed over arbitrary-precision rationals (``fractions.Fraction``),
so equality of algebraic expressions is decidable and all identity checks in the
sibling modules are exact.  All values are immutable after construction; the
functions here are pure and safe to call concurrently.

Conventions:

* a parity is the int 0 (even) or 1 (odd), added mod 2;
* sign-returning helpers take 1-based positions, matching the usual way
  transpositions "at position i" are written in the algebra literature;
* a linear map acts on column vectors: ``columns[label]`` is the image of the
  basis vector ``label``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to a reduced exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class OversizedScalar(ValueError):
    """A computed scalar with more digits than ``int`` converts to text."""

    def __init__(self):
        super().__init__(f"an output scalar has more than {sys.get_int_max_str_digits()} digits")


def format_scalar(value: Fraction) -> str:
    """Render as 'p' or 'p/q' with q > 0 and gcd(p, q) = 1."""
    try:
        return str(Fraction(value))
    except ValueError:  # more digits than int() converts
        raise OversizedScalar from None


def integer_table(coefficients: Mapping) -> tuple[int, dict]:
    """(scale, cells): {key: {label: Fraction}} dicts as integer numerators over their least common denominator.

    The one way from rationals into the integer table algebra; the least
    scale makes the form of a tensor unique.
    """
    scale = math.lcm(1, *(c.denominator for cs in coefficients.values() for c in cs.values()))
    return scale, {
        key: {l: c.numerator * (scale // c.denominator) for l, c in cs.items()} for key, cs in coefficients.items()
    }


def element_at(table: tuple[int, dict], key) -> "Element":
    """The value of an integer table (:func:`integer_table`) at ``key`` as an Element, zero where it has none."""
    scale, cells = table
    return Element({l: Fraction(v, scale) for l, v in cells.get(key, {}).items()})


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
    and equality is field by field, within one class only.
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
            object.__setattr__(self, f, given[f])
        post_init(self)

    def values(self):
        return tuple(getattr(self, f) for f in fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__):
        setattr(cls, method.__name__, method)
    cls.__delattr__ = __setattr__
    return cls


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


class Element:
    """Sparse vector: map from basis label to nonzero Scalar coefficient.

    Treated as immutable; arithmetic returns new instances and zero
    coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None):
        clean = {}
        if coeffs:
            for label, c in coeffs.items():
                c = scalar(c)
                if c != 0:
                    clean[label] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover - guards against mutation
        raise AttributeError("Element is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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

class GradedLinearMap:
    """Linear endomorphism with a declared parity.

    Even maps preserve the grading, odd maps flip it; construction rejects
    images violating the declared parity.
    """

    __slots__ = ("space", "parity", "columns", "integer_columns")

    def __init__(self, space: SuperSpace, parity: int, columns: Mapping[str, Element]):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        cols = {}
        for label in space.labels:
            img = columns.get(label, Element())
            if not isinstance(img, Element):
                img = Element(img)
            want = (space.parity(label) + parity) % 2
            for out_label in img.coeffs:
                if space.parity(out_label) != want:
                    raise ValueError(
                        f"map declared parity {parity} but {label} "
                        f"(parity {space.parity(label)}) hits {out_label} "
                        f"(parity {space.parity(out_label)})"
                    )
            cols[label] = img
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "columns", cols)
        # (scale, {label: {row: numerator}}): the nonzero columns as an integer table
        object.__setattr__(self, "integer_columns", integer_table({l: e.coeffs for l, e in cols.items() if e}))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("GradedLinearMap is immutable")

    @classmethod
    def from_matrix(cls, space: SuperSpace, rows, parity: int | None = None) -> "GradedLinearMap":
        """Build from a dense row-major matrix: rows[i][j] = <e_i | M e_j>."""
        d = space.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"matrix must be {d}x{d}")
        cols = {}
        for j, label in enumerate(space.labels):
            cols[label] = Element(
                {space.labels[i]: scalar(rows[i][j]) for i in range(d)}
            )
        if parity is None:
            parity = _infer_parity(space, cols)
        return cls(space, parity, cols)

    @classmethod
    def identity(cls, space: SuperSpace) -> "GradedLinearMap":
        return cls(space, 0, {l: space.basis_element(l) for l in space.labels})

    @classmethod
    def zero(cls, space: SuperSpace, parity: int = 0) -> "GradedLinearMap":
        return cls(space, parity, {})

    def matrix(self) -> list[list[Fraction]]:
        d = self.space.dim
        rows = [[ZERO] * d for _ in range(d)]
        for j, label in enumerate(self.space.labels):
            for out_label, c in self.columns[label].coeffs.items():
                rows[self.space.index(out_label)][j] = c
        return rows

    def apply(self, elem: Element) -> Element:
        out = Element()
        for label, c in elem.coeffs.items():
            out = out + self.columns[label].scale(c)
        return out

    def apply_basis(self, label: str) -> Element:
        return self.columns[label]

    def is_zero(self) -> bool:
        return all(col.is_zero() for col in self.columns.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.space == other.space
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.space, frozenset((l, e) for l, e in self.columns.items())))

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        _same_space(self, other)
        if self.parity != other.parity and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add maps of different parity")
        parity = other.parity if self.is_zero() else self.parity
        return GradedLinearMap(
            self.space,
            parity,
            {l: self.columns[l] + other.columns[l] for l in self.space.labels},
        )

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self + other.scale(-1)

    def scale(self, a) -> "GradedLinearMap":
        a = scalar(a)
        return GradedLinearMap(
            self.space, self.parity, {l: col.scale(a) for l, col in self.columns.items()}
        )

    def __repr__(self):
        entries = ", ".join(
            f"{l} -> {self.columns[l]!r}" for l in self.space.labels if not self.columns[l].is_zero()
        )
        return f"GradedLinearMap(parity={self.parity}, {entries or '0'})"


def _infer_parity(space: SuperSpace, cols: Mapping[str, Element]) -> int:
    for label, img in cols.items():
        for out_label in img.coeffs:
            return (space.parity(out_label) - space.parity(label)) % 2
    return 0


def _same_space(f: GradedLinearMap, g: GradedLinearMap):
    if f.space != g.space:
        raise ValueError("maps live on different spaces")


def map_compose(f: GradedLinearMap, g: GradedLinearMap) -> GradedLinearMap:
    """f after g; parities add mod 2."""
    _same_space(f, g)
    return GradedLinearMap(
        f.space,
        (f.parity + g.parity) % 2,
        {l: f.apply(g.columns[l]) for l in f.space.labels},
    )


def map_power(f: GradedLinearMap, k: int) -> GradedLinearMap:
    if k < 0:
        raise ValueError("negative powers are not defined here")
    out = GradedLinearMap.identity(f.space)
    for _ in range(k):
        out = map_compose(f, out)
    return out


def supercommutator_maps(d1: GradedLinearMap, d2: GradedLinearMap) -> GradedLinearMap:
    """d1 o d2 - (-1)^(|d1||d2|) d2 o d1."""
    _same_space(d1, d2)
    sign = -1 if d1.parity * d2.parity else 1
    return map_compose(d1, d2) - map_compose(d2, d1).scale(sign)


# ---------------------------------------------------------------------------
# Structure-constant brackets
# ---------------------------------------------------------------------------

class NaryBracket:
    """Arity-n multilinear product stored as a sparse structure-constant tensor.

    Its form is the integer table ``table`` (:func:`integer_table`), made once
    at construction; ``entries`` gives the same tensor as elements on first
    read.  Index tuples absent from it evaluate to zero.  Graded-evenness is a
    property verified by the axioms module, not forced at construction, so
    deliberately broken tensors can be built and diagnosed.
    """

    __slots__ = ("arity", "table", "_entries")

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
        for name, v in (("arity", arity), ("table", integer_table(coeffs)), ("_entries", None)):
            object.__setattr__(self, name, v)

    @classmethod
    def of_table(cls, arity: int, table: tuple[int, dict]) -> "NaryBracket":
        """The bracket of an integer table with no zero numerators, its scale reduced to the least one."""
        scale, cells = table
        g = math.gcd(scale, *(v for cell in cells.values() for v in cell.values()))
        if g > 1:
            cells = {args: {l: v // g for l, v in cell.items()} for args, cell in cells.items()}
        bracket = cls(arity)
        object.__setattr__(bracket, "table", (scale // g, cells))
        return bracket

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("NaryBracket is immutable")

    @property
    def entries(self) -> dict:
        """The tensor as {args: Element}."""
        if self._entries is None:
            object.__setattr__(self, "_entries", {args: element_at(self.table, args) for args in self.table[1]})
        return self._entries

    def value(self, args: Sequence[str]) -> Element:
        return self.entries.get(tuple(args), Element())

    def __eq__(self, other) -> bool:
        return isinstance(other, NaryBracket) and (self.arity, self.table) == (other.arity, other.table)

    def __hash__(self):
        scale, cells = self.table
        return hash((self.arity, scale, frozenset((args, frozenset(c.items())) for args, c in cells.items())))

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
        if self.multiplicative_flag and len(set(id(t) for t in self.twists)) > 1:
            if any(t != self.twists[0] for t in self.twists[1:]):
                raise ValueError("multiplicative algebras carry one shared twist")

    @property
    def arity(self) -> int:
        return self.bracket.arity

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
    generators: Mapping[tuple[str, ...], object],
    space: SuperSpace,
    swaps: Sequence[int] | None = None,
) -> dict:
    """Extend generating values to every index tuple their orbit reaches.

    The orbit is generated by the adjacent transpositions at the 1-based
    positions ``swaps`` (all of 1..arity-1 by default); each carries the
    Koszul skew sign, applied by unary minus, so values may be
    :class:`Element` brackets or ``Fraction`` cochain values (mappings are
    read as elements).  A tuple whose orbit forces v = -v with v nonzero, or
    two generators disagreeing on one orbit, raise :class:`OrbitConflict`.
    Zero values are dropped from the result.
    """
    if swaps is None:
        swaps = range(1, arity)
    table = {}
    worklist = []

    def insert(args, value):
        existing = table.get(args)
        if existing is None:
            table[args] = value
            worklist.append((args, value))
        elif existing != value:
            raise OrbitConflict(args, existing, value)

    for args, value in generators.items():
        insert(tuple(args), Element(value) if isinstance(value, Mapping) else value)
    while worklist:
        args, value = worklist.pop()
        parities = [space.parity(a) for a in args]
        for i in swaps:
            swapped = args[: i - 1] + (args[i], args[i - 1]) + args[i + 1 :]
            insert(swapped, value if adjacent_transposition_sign(parities, i) > 0 else -value)
    return {args: v for args, v in table.items() if v}
