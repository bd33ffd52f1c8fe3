import itertools
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_oracle
from homnambu import algfile, axioms, catalog, cochains, core, derivations, prelie, rotabaxter
from homnambu.iterated import iterated_bracket

ASCII_SPACE = " \t\n\r\f\v"
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OrbitConflict,
    OversizedScalar,
    SuperSpace,
    adjacent_transposition_sign,
    complete_skew_orbit,
    element_at,
    eval_bracket,
    integer_table,
    map_compose,
    map_power,
    multiplicative_algebra,
    koszul_sign,
    pair_extraction_sign,
    record,
    scalar,
    format_ratio,
    format_scalar,
    supercommutator_maps,
)


def permutation_sign(parities, perm) -> int:
    """Koszul sign of applying ``perm`` to a homogeneous tuple, by inversion count.

    ``perm[k]`` is the source position (0-based) of the element landing in slot
    k.  Each inversion contributes -(-1)^(p_a * p_b).  Serves as the
    path-independent oracle for signs accumulated by adjacent swaps.
    """
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign *= -1 if parities[perm[b]] * parities[perm[a]] == 0 else 1
    return sign


def two_dim(parities=(0, 1)):
    return SuperSpace.from_pairs([("e0", parities[0]), ("e1", parities[1])])


def g3(a=2):
    space = two_dim()
    table = complete_skew_orbit(2, integer_table({("e0", "e1"): {"e1": 1}}), space)
    alpha = GradedLinearMap.from_matrix(space, [[1, 0], [0, a]])
    return multiplicative_algebra(space, NaryBracket.of_table(2, table), alpha)


def g5(a=2):
    space = two_dim()
    table = complete_skew_orbit(2, integer_table({("e1", "e1"): {"e0": 1}}), space)
    alpha = GradedLinearMap.from_matrix(space, [[a * a, 0], [0, a]])
    return multiplicative_algebra(space, NaryBracket.of_table(2, table), alpha)


class TestScalar:
    def test_parse_and_format(self):
        assert scalar("3/6") == F(1, 2)
        assert scalar(-4) == F(-4)
        assert format_scalar(F(2, 4)) == "1/2"
        assert format_scalar(F(-3)) == "-3"

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            scalar(0.5)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(["0", "1", "7", "10", "/", "-", "+", ".", "e", "_", " ", "\t", "\xa0", "\u3000",
                                     "\u0663", "\uff13"]),
                    max_size=7).map("".join))
    def test_string_grammar_is_the_file_grammar(self, text):
        """Strings parse exactly when they read -?digits(/digits)? once stripped of ASCII whitespace, as Fraction
        reads them, with ASCII digits only; decimal, exponent, underscore and '+' forms, the digits of other scripts
        (Arabic-Indic and fullwidth here) and other whitespace (no-break and ideographic spaces here), which
        Fraction also takes, raise ValueError."""
        text_stripped = text.strip(ASCII_SPACE)
        match = re.fullmatch(r"-?[0-9]+(/([0-9]+))?", text_stripped)
        if match is None:
            with pytest.raises(ValueError):
                scalar(text)
        elif match[2] is not None and int(match[2]) == 0:
            with pytest.raises(ZeroDivisionError):
                scalar(text)
        else:
            assert scalar(text) == F(text_stripped)
            value = F(text_stripped)  # the pair parser's pair is the reduced one, the denominator positive
            assert core.parse_ratio(text) == (value.numerator, value.denominator)

    def test_strips_ascii_whitespace_only(self):
        """str.strip() also drops Unicode spaces and separators, so "\\xa03\\u3000" read as 3."""
        assert scalar(" \t\n\r\f\v3/6 \t\n\r\f\v") == F(1, 2)
        for text in ("\xa03\u3000", "\xa03", "3\u3000", "\x1c3", "3\x85", "\u20283"):
            with pytest.raises(core.ScalarSyntaxError):
                scalar(text)

    def test_library_strings_follow_the_grammar(self):
        assert Element({"e0": " 3/6 "}) == Element({"e0": F(1, 2)})
        for text in ("1.5", "1e10000000", "1_0", "+2", "\u0663", "\uff13", "1/\u0663"):
            with pytest.raises(ValueError):
                Element({"e0": text})
            with pytest.raises(ValueError):
                catalog.catalog_build("g3_1_1", a=text)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    def test_format_ratio_writes_the_reduced_fraction(self, numerator, denominator):
        assert format_ratio(numerator, denominator) == str(F(numerator, denominator))

    def test_format_ratio_past_the_digit_limit(self):
        big = 7 * 10 ** sys.get_int_max_str_digits()
        for numerator, denominator in ((big, 1), (-big, 3), (1, big)):
            with pytest.raises(OversizedScalar):
                format_ratio(numerator, denominator)
        with pytest.raises(OversizedScalar):
            format_scalar(F(1, big))


class TestSigns:
    def test_adjacent_examples(self):
        assert adjacent_transposition_sign([0, 0], 1) == -1
        assert adjacent_transposition_sign([1, 1], 1) == 1
        assert adjacent_transposition_sign([1, 0], 1) == -1

    def test_adjacent_range(self):
        with pytest.raises(IndexError):
            adjacent_transposition_sign([0, 1], 2)

    def test_koszul_sign_matches_permutation_oracle(self):
        """Each inversion costs -(-1)^(p_a p_b) in the skew sign and (-1)^(p_a p_b)
        in the Koszul sign, so the two differ by the sign of the permutation."""
        for n in range(6):
            for parities in itertools.product((0, 1), repeat=n):
                for perm in itertools.permutations(range(n)):
                    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
                    expected = permutation_sign(parities, perm) * (-1) ** inversions
                    assert koszul_sign(parities, [i + 1 for i in perm]) == expected

    def test_pair_extraction_examples(self):
        for i, j in itertools.combinations(range(1, 4), 2):
            assert pair_extraction_sign([0, 0, 0], i, j) == 1
        assert pair_extraction_sign([1, 1, 1], 1, 2) == 1
        assert pair_extraction_sign([0, 1, 1], 2, 3) == 1

    def test_pair_extraction_range(self):
        with pytest.raises(IndexError):
            pair_extraction_sign([0, 1], 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=5),
        st.data(),
    )
    def test_swap_path_independence(self, parities, data):
        """Accumulating adjacent-swap signs along any sorting path matches the
        inversion-count oracle."""
        n = len(parities)
        perm = data.draw(st.permutations(range(n)))
        # bubble the permutation into place, accumulating adjacent signs
        current = list(perm)
        current_parities = [parities[i] for i in perm]
        sign = 1
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                if current[i] > current[i + 1]:
                    sign *= adjacent_transposition_sign(current_parities, i + 1)
                    current[i], current[i + 1] = current[i + 1], current[i]
                    current_parities[i], current_parities[i + 1] = (
                        current_parities[i + 1],
                        current_parities[i],
                    )
                    changed = True
        assert sign == permutation_sign(parities, list(perm))


class TestElement:
    def test_zero_pruning_and_equality(self):
        assert Element({"x": 0}) == Element()
        assert (Element({"x": 1}) - Element({"x": 1})).is_zero()

    def test_arithmetic(self):
        a = Element({"x": F(1, 2), "y": 1})
        b = Element({"x": F(1, 2)})
        assert a - b == Element({"y": 1})
        assert a.scale(2) == Element({"x": 1, "y": 2})

    def test_parity(self):
        space = two_dim()
        assert Element({"e0": 1}).parity_in(space) == 0
        assert Element({"e1": 3}).parity_in(space) == 1
        assert Element({"e0": 1, "e1": 1}).parity_in(space) is None
        assert Element().parity_in(space) == 0


class TestSuperSpace:
    def test_dims(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1), ("c", 1)])
        assert (space.dim0, space.dim1) == (1, 2)

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            SuperSpace.from_pairs([("a", 0), ("a", 1)])

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            two_dim().index("nope")


class TestMaps:
    def test_parity_blocks_enforced(self):
        space = two_dim()
        with pytest.raises(ValueError):
            GradedLinearMap(space, 0, {"e0": Element({"e1": 1})})
        odd = GradedLinearMap(space, 1, {"e0": Element({"e1": 1})})
        assert odd.parity == 1

    def test_power_zero_is_identity(self):
        alg = g3()
        assert map_power(alg.twist, 0) == GradedLinearMap.identity(alg.space)

    def test_power_example(self):
        alg = g3(F(1, 2))
        sq = map_power(alg.twist, 2)
        assert sq.matrix() == [[1, 0], [0, F(1, 4)]]

    def test_compose_parity(self):
        space = two_dim()
        odd = GradedLinearMap(space, 1, {"e0": Element({"e1": 1}), "e1": Element({"e0": 1})})
        even = GradedLinearMap.identity(space)
        assert map_compose(even, odd).parity == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4))
    def test_power_additivity(self, j, k):
        alpha = g5(3).twist
        assert map_power(alpha, j + k) == map_compose(map_power(alpha, j), map_power(alpha, k))

    def test_supercommutator(self):
        space = two_dim()
        odd = GradedLinearMap(space, 1, {"e0": Element({"e1": 1}), "e1": Element({"e0": 1})})
        assert supercommutator_maps(odd, odd) == map_compose(odd, odd).scale(2)
        ident = GradedLinearMap.identity(space)
        assert supercommutator_maps(ident, odd).is_zero()
        d1 = GradedLinearMap.from_matrix(space, [[2, 0], [0, 3]])
        d2 = GradedLinearMap.from_matrix(space, [[5, 0], [0, 7]])
        assert supercommutator_maps(d1, d2).is_zero()


class TestEvalBracket:
    def test_catalog_values(self):
        alg = g3()
        e0 = alg.space.basis_element("e0")
        e1 = alg.space.basis_element("e1")
        assert eval_bracket(alg, [e0, e1]) == e1
        assert eval_bracket(alg, [e1, e0]) == e1.scale(-1)
        assert eval_bracket(alg, [Element(), e1]).is_zero()

    def test_arity_mismatch(self):
        alg = g3()
        with pytest.raises(ValueError):
            eval_bracket(alg, [alg.space.basis_element("e0")])

    def test_unknown_label(self):
        alg = g3()
        with pytest.raises(KeyError):
            eval_bracket(alg, [Element({"zz": 1}), Element({"e0": 1})])

    def test_output_parity_matches_input_sum(self):
        for alg in (g3(), g5(F(1, 2))):
            space = alg.space
            for args in space.tuples(2):
                value = alg.bracket.value(args)
                want = sum(space.parity(a) for a in args) % 2
                for label in value.coeffs:
                    assert space.parity(label) == want


class TestOrbitCompletion:
    def test_fills_swapped_entry(self):
        space = two_dim()
        table = complete_skew_orbit(2, integer_table({("e0", "e1"): {"e1": 1}}), space)
        assert element_at(table, ("e1", "e0")) == Element({"e1": -1})

    def test_odd_square_is_fixed_point(self):
        space = two_dim()
        table = complete_skew_orbit(2, integer_table({("e1", "e1"): {"e0": 1}}), space)
        assert element_at(table, ("e1", "e1")) == Element({"e0": 1})

    def test_even_square_conflicts(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0)])
        with pytest.raises(OrbitConflict):
            complete_skew_orbit(2, integer_table({("a", "a"): {"b": 1}}), space)

    def test_inconsistent_generators_conflict(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0), ("v", 0)])
        with pytest.raises(OrbitConflict):
            complete_skew_orbit(
                2,
                integer_table({("a", "b"): {"v": 1}, ("b", "a"): {"v": 1}}),
                space,
            )

    def test_idempotent(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1), ("c", 1)])
        first = complete_skew_orbit(
            3, integer_table({("a", "b", "c"): {"a": F(2, 3)}}), space
        )
        assert complete_skew_orbit(3, first, space) == first

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=3, max_size=4),
        st.sampled_from(({"out": 1}, {0: F(2, 3)})),
        st.sampled_from((None, (1,))),
    )
    def test_orbit_signs_match_permutation_oracle(self, parities, value, swaps):
        """Bracket cells and one-output cochain cells alike; with ``swaps=(1,)``
        only the first-pair transposition is applied, so the orbit has two tuples."""
        labels = [f"b{i}" for i in range(len(parities))]
        space = SuperSpace.from_pairs(list(zip(labels, parities)) + [("out", 0)])
        seed = tuple(labels)
        value = Element(value)
        table = complete_skew_orbit(len(labels), integer_table({seed: value.coeffs}), space, swaps=swaps)
        for perm in itertools.permutations(range(len(labels))):
            key = tuple(labels[i] for i in perm)
            if swaps is None or perm[2:] == tuple(range(2, len(labels))):
                sign = permutation_sign(parities, list(perm))
                expected = value if sign > 0 else -value
            else:
                expected = Element()
            assert element_at(table, key) == expected
        assert len(table[1]) == (2 if swaps else len(list(itertools.permutations(labels))))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bracket_completion_matches_oracle(self, data):
        """Integer-table completion against the Element completion it replaced:
        the same tables, or the same conflict with the same message."""
        space, n, swaps, generators = data.draw(orbit_generators(cochain=False))
        expected = _outcome(lambda: table_oracle.complete_skew_orbit(n, generators, space, swaps))

        def completed():
            table = complete_skew_orbit(n, integer_table(generators), space, swaps)
            return {args: element_at(table, args) for args in table[1]}

        assert _outcome(completed) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cochain_completion_matches_oracle(self, data):
        """A cochain completes on its one-output table and reports a conflict
        with scalar sides, as the completion on Fraction values did."""
        space, n, _, generators = data.draw(orbit_generators(cochain=True))
        expected = _outcome(lambda: table_oracle.complete_skew_orbit(n, generators, space))
        assert _outcome(lambda: cochains.SuperCochain(space, n, generators).values) == expected


ORBIT_VALUES = (F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(3))


def _outcome(complete):
    """The completion, or the type and message of its OrbitConflict."""
    try:
        return complete()
    except OrbitConflict as exc:
        return type(exc), str(exc)


@st.composite
def orbit_generators(draw, cochain):
    """(space, arity, swaps, generators) over at most three labels.

    Generators may be zero (a zero value or, for brackets, no outputs), repeat
    even labels, and come in pairs on one orbit: a permutation of the first
    generator's tuple that either disagrees with it or carries the value its
    orbit forces.  Brackets map to {label: Fraction}, cochains to a Fraction
    on even tuples, completed under every swap.
    """
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    space = SuperSpace(tuple(f"e{i}" for i in range(len(parities))), tuple(parities))
    n = draw(st.integers(2, 4))
    swaps = None if cochain else draw(st.sampled_from((None, (1,))))
    parity = lambda args: sum(map(space.parity, args)) % 2
    keys = draw(st.lists(st.tuples(*[st.sampled_from(space.labels)] * n), max_size=4, unique=True))
    if cochain:
        keys = [args for args in keys if not parity(args)]

    def value(args):
        if cochain:
            return draw(st.sampled_from(ORBIT_VALUES))
        outs = [l for l in space.labels if space.parity(l) == parity(args)]
        picked = draw(st.lists(st.sampled_from(outs), max_size=2, unique=True)) if outs else []
        return {l: draw(st.sampled_from(ORBIT_VALUES)) for l in picked}

    generators = {args: value(args) for args in keys}
    if keys and draw(st.booleans()):
        first, twin = keys[0], tuple(draw(st.permutations(keys[0])))
        if twin != first:
            generators.pop(twin, None)
            forced = _outcome(lambda: table_oracle.complete_skew_orbit(n, {first: generators[first]}, space, swaps))
            if isinstance(forced, dict) and draw(st.booleans()):
                generators[twin] = forced.get(twin, F(0)) if cochain else dict(forced.get(twin, Element()).coeffs)
            else:
                generators[twin] = value(twin)
    return space, n, swaps, generators


# ---------------------------------------------------------------------------
# Frozen records
# ---------------------------------------------------------------------------

RECORD_MODULES = (algfile, axioms, catalog, cochains, core, derivations, prelie, rotabaxter)


def record_classes():
    """Every class in the engine that :func:`record` decorated: it always installs the raising ``__setattr__``."""
    return {
        obj
        for module in RECORD_MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__setattr__.__qualname__ == "record.<locals>.__setattr__"
    }


def record_samples() -> dict:
    """Valid field values, by keyword, for one instance of each record class."""
    space = two_dim()
    ident = GradedLinearMap.identity(space)
    odd = GradedLinearMap(space, 1, {"e0": Element({"e1": 1})})
    alg = HomSuperAlgebra(space, NaryBracket(2, {("e0", "e0"): {"e0": 1}}), (ident,))
    report = axioms.CheckReport("nambu", False, (axioms.Counterexample(("e0",), 1, 2),), 1, 4)
    other = axioms.CheckReport("skew", True, (), 0, 4)
    return {
        SuperSpace: dict(labels=("a", "b"), parities=(0, 1)),
        HomSuperAlgebra: dict(space=space, bracket=alg.bracket, twists=(ident,), multiplicative_flag=True),
        algfile.AttachedOperator: dict(kind="map", map=ident, weight=F(1, 2), power=1),
        algfile.AlgebraBundle: dict(
            name="A", algebra=alg, cochains=(cochains.SuperCochain(space, 1, {("e0",): 1}),), operators=()
        ),
        axioms.Counterexample: dict(args=("e0", "e1"), lhs=Element({"e0": 1}), rhs=Element(), note="n"),
        axioms.CheckReport: dict(
            identity="nambu", passed=False, counterexamples=report.counterexamples, failures=1, tuples_checked=4
        ),
        catalog.ParamSpec: dict(name="a", default=F(2), constraint="nonzero"),
        catalog.CatalogEntry: dict(name="E", summary="s", parameters=(), profile=("p",), builder=len),
        cochains.InductionReport: dict(wedge=report, twist=other),
        cochains.TransferReport: dict(hypothesis=other, conclusion=None),
        derivations.DerivationCandidate: dict(map=odd, power=2),
        derivations.QuasiPair: dict(d=odd, dprime=odd, power=1),
        derivations.GeneralizedTuple: dict(maps=(ident, ident, ident), power=0),
        rotabaxter.RotaBaxterOperator: dict(map=ident, weight=F(3)),
        rotabaxter.EquivalenceReport: dict(rb=report, inverse_derivation=other),
        rotabaxter.KernelConditionReport: dict(kernel=other, nary=report),
        prelie.TriProduct: dict(space=space, product=NaryBracket(3, {("e0", "e0", "e0"): {"e0": 1}}), twist=ident),
    }


RECORD_SAMPLES = record_samples()


def value_samples() -> dict:
    """{class: (make, view)} for the records that keep their own constructor, plus ``TriProduct``.

    ``make()`` builds a fresh instance with one dict-valued field; ``view`` names its cached derived view.
    """
    space, even = two_dim(), two_dim((0, 0))
    return {
        Element: (lambda: Element({"e0": F(1, 2), "e1": 3}), None),
        GradedLinearMap: (lambda: GradedLinearMap(space, 1, {"e0": {"e1": F(2, 3)}, "e1": {"e0": 1}}), "columns"),
        NaryBracket: (lambda: NaryBracket(2, {("e0", "e1"): {"e1": F(1, 2)}, ("e1", "e0"): {"e1": -1}}), "entries"),
        cochains.SuperCochain: (lambda: cochains.SuperCochain(even, 2, {("e0", "e1"): F(3, 4)}), "values"),
        prelie.TriProduct: (lambda: prelie.TriProduct(**RECORD_SAMPLES[prelie.TriProduct]), "cyclic"),
    }


VALUE_SAMPLES = value_samples()


def test_every_record_class_has_a_sample():
    assert set(RECORD_SAMPLES) | set(VALUE_SAMPLES) == record_classes()
    assert len(set(RECORD_SAMPLES) | set(VALUE_SAMPLES)) == 21


@pytest.mark.parametrize("cls", list(VALUE_SAMPLES), ids=lambda cls: cls.__name__)
class TestValueRecords:
    def test_fields_and_assigned_view_are_frozen(self, cls):
        make, view = VALUE_SAMPLES[cls]
        a = make()
        names = list(cls.__annotations__) + ([view] if view else [])
        if view:
            getattr(a, view)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == make()

    def test_equal_values_hash_equal(self, cls):
        make, _ = VALUE_SAMPLES[cls]
        a, b = make(), make()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [cls for cls, (_, view) in VALUE_SAMPLES.items() if view], ids=lambda cls: cls.__name__)
def test_view_is_built_once_and_left_out(cls):
    make, view = VALUE_SAMPLES[cls]
    a, b = make(), make()
    assert view not in vars(a)
    first = getattr(a, view)
    assert vars(a)[view] is first and getattr(a, view) is first
    assert a == b and hash(a) == hash(b)
    assert view not in vars(b)
    if cls.__repr__.__qualname__ == "record.<locals>.__repr__":
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in cls.__annotations__)
        assert repr(a) == repr(b) == f"{cls.__name__}({fields})"
        assert view not in vars(b)


def test_record_keeps_class_defined_dunders():
    @record
    class Tagged:
        tag: str

        def __init__(self, tag):
            vars(self).update(tag=tag.lower())

        def __repr__(self):
            return f"<{self.tag}>"

    a = Tagged("X")
    assert a.tag == "x" and repr(a) == "<x>"
    assert a == Tagged("x") and hash(a) == hash(Tagged("x"))  # made by record
    with pytest.raises(AttributeError):
        a.tag = "y"
    assert Element.__init__.__qualname__ == "Element.__init__"
    assert Element.__repr__.__qualname__ == "Element.__repr__"
    assert repr(Element({"e1": 1, "e0": F(-1, 2)})) == "(-1/2)*e0 + (1)*e1"
    assert GradedLinearMap.__repr__.__qualname__ == "GradedLinearMap.__repr__"
    assert NaryBracket.__eq__.__qualname__ == "record.<locals>.__eq__"


def test_dict_valued_fields_hash_by_content():
    """Dicts in fields, through tuples, hash as their items: insertion order does not matter."""
    space = two_dim()
    assert hash(Element({"e0": 1, "e1": 2})) == hash(Element({"e1": 2, "e0": 1}))
    assert hash(Element({"e0": 1})) != hash(Element({"e0": 2}))  # values are hashed, not only keys
    f = GradedLinearMap(space, 0, {"e0": {"e0": 1}, "e1": {"e1": F(1, 2)}})
    g = GradedLinearMap(space, 0, {"e1": {"e1": F(1, 2)}, "e0": {"e0": 1}})
    assert list(f.integer_columns[1]) == list(g.integer_columns[1])  # columns in basis order either way
    h = GradedLinearMap.of_table(space, 0, (2, {"e1": {"e1": 1}, "e0": {"e0": 2}}))
    assert f == g == h and hash(f) == hash(g) == hash(h)


def test_map_constructors_agree_at_the_least_scale():
    space = two_dim((0, 0))
    from_elements = GradedLinearMap(space, 0, {"e0": Element({"e0": F(2, 6), "e1": F(1, 2)}), "e1": Element()})
    from_matrix = GradedLinearMap.from_matrix(space, [[F(1, 3), 0], [F(1, 2), 0]], parity=0)
    of_table = GradedLinearMap.of_table(space, 0, (12, {"e0": {"e0": 4, "e1": 6}}))
    assert from_elements == from_matrix == of_table
    for m in (from_elements, from_matrix, of_table):
        assert m.integer_columns == (6, {"e0": {"e0": 2, "e1": 3}})
        assert "columns" not in vars(m)
    assert of_table.columns == {"e0": Element({"e0": F(1, 3), "e1": F(1, 2)}), "e1": Element()}


def _k_fold_power(f, k):
    """f composed with itself k times, one composition at a time: map_power's oracle."""
    out = GradedLinearMap.identity(f.space)
    for _ in range(k):
        out = map_compose(f, out)
    return out


def test_map_power_matches_the_k_fold_product():
    """Every catalog twist at its defaults, an odd swap and a dense even map, for k up to 9."""
    maps = [catalog.catalog_build(e.name).algebra.twists[0] for e in catalog.catalog_list()]
    maps.append(GradedLinearMap(two_dim(), 1, {"e0": Element({"e1": 1}), "e1": Element({"e0": F(-2, 3)})}))
    maps.append(GradedLinearMap.from_matrix(two_dim((0, 0)), [[1, 2], [F(1, 3), -1]]))
    for f in maps:
        for k in range(10):
            assert map_power(f, k) == _k_fold_power(f, k), (f, k)


def test_map_power_composes_at_most_twice_log2_k(monkeypatch):
    """Repeated squaring: at most 2*floor(log2 k) + 1 compositions, where the k-fold product made k."""
    alpha = catalog.catalog_build("osp12").algebra.twists[0]
    calls = []
    monkeypatch.setattr(core, "map_compose", lambda f, g: calls.append(1) or map_compose(f, g))  # the oracle's is not counted
    for k in [*range(1, 70), 2000, 30000]:
        calls.clear()
        power = map_power(alpha, k)
        assert len(calls) <= 2 * (k.bit_length() - 1) + 1, k
        assert k >= 70 or power == _k_fold_power(alpha, k), k
    scale, cols = power.integer_columns  # alpha^30000 = diag(4, 1/4, 1, 1/2, 2)^30000 on X, Y, H, F, G
    assert scale == 4**30000 and cols["X"] == {"X": 16**30000} and cols["H"] == {"H": 4**30000}


def test_from_matrix_parses_each_entry_once(monkeypatch):
    """from_matrix reads each entry through core.scalar once and builds the record the constructor builds."""
    space = two_dim((0, 0))
    rows = [["1/3", 0], ["1/2", "0"]]
    parse, calls = core.scalar, []
    monkeypatch.setattr(core, "scalar", lambda value: calls.append(value) or parse(value))
    m = GradedLinearMap.from_matrix(space, rows)
    assert sorted(map(str, calls)) == ["0", "0", "1/2", "1/3"]
    assert m == GradedLinearMap(space, 0, {"e0": {"e0": F(1, 3), "e1": F(1, 2)}, "e1": {}})
    with pytest.raises(ValueError, match="declared parity 1"):
        GradedLinearMap.from_matrix(space, rows, parity=1)
    odd = GradedLinearMap.from_matrix(two_dim(), [[0, 1], [2, 0]])
    assert odd.parity == 1 and odd == GradedLinearMap(two_dim(), 1, {"e0": {"e1": 2}, "e1": {"e0": 1}})
    for entry in catalog.catalog_list():
        for f in catalog.catalog_build(entry.name).algebra.twists:
            assert GradedLinearMap.from_matrix(f.space, f.matrix(), f.parity) == f


def test_unknown_column_label_raises():
    """A column keyed by a label outside the basis was silently dropped; it raises as an unknown row does."""
    space = SuperSpace.from_pairs([("a", 0)])
    with pytest.raises(KeyError, match="unknown basis label 'zz'"):
        GradedLinearMap(space, 0, {"zz": Element({"a": 1}), "a": {"a": 2}})
    with pytest.raises(KeyError, match="unknown basis label 'zz'"):
        GradedLinearMap(space, 0, {"a": {"zz": 2}})


def test_zero_maps_of_different_parity_are_unequal():
    """Map equality is record equality, so it compares the declared parity too, even of a zero map."""
    space = two_dim()
    even, odd = GradedLinearMap.zero(space, 0), GradedLinearMap.zero(space, 1)
    assert even.is_zero() and odd.is_zero()
    assert even != odd and hash(even) != hash(odd)
    assert even == GradedLinearMap.identity(space).scale(0) == GradedLinearMap(space, 0, {})
    assert odd == GradedLinearMap(space, 1, {"e0": Element()})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=18, max_size=18),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_map_algebra_matches_dense_matrices(entries, a):
    """Sums, scalings and composites on integer columns agree with dense Fraction matrices, at the least scale."""
    space = SuperSpace.from_pairs([("x", 0), ("y", 0), ("z", 0)])
    fm, gm = [entries[:3], entries[3:6], entries[6:9]], [entries[9:12], entries[12:15], entries[15:]]
    f, g = (GradedLinearMap.from_matrix(space, m, parity=0) for m in (fm, gm))
    cases = [
        (f + g, [[fm[i][j] + gm[i][j] for j in range(3)] for i in range(3)]),
        (f - g, [[fm[i][j] - gm[i][j] for j in range(3)] for i in range(3)]),
        (f.scale(a), [[a * fm[i][j] for j in range(3)] for i in range(3)]),
        (map_compose(f, g), [[sum(fm[i][k] * gm[k][j] for k in range(3)) for j in range(3)] for i in range(3)]),
    ]
    for computed, dense in cases:
        assert computed.matrix() == dense
        assert computed.integer_columns == GradedLinearMap.from_matrix(space, dense, parity=0).integer_columns


def test_checks_and_solver_never_build_the_twist_columns():
    """The Nambu check and the derivation solver read a map's integer columns only."""
    nested = iterated_bracket(catalog.catalog_build("osp12", **{"lambda": F(2)}).algebra, 4)
    twist = nested.twists[0]
    assert axioms.check_nambu_identity(nested).passed
    for parity in (0, 1):
        derivations.solve_derivation_space(nested, 1, parity)
    assert "columns" not in vars(twist)


@pytest.mark.parametrize("cls", list(RECORD_SAMPLES), ids=lambda cls: cls.__name__)
class TestRecords:
    def test_fields_in_annotation_order(self, cls):
        values = RECORD_SAMPLES[cls]
        assert list(values) == list(cls.__annotations__)
        by_keyword, by_position = cls(**values), cls(*values.values())
        for name, value in values.items():
            assert getattr(by_keyword, name) == value
        assert by_keyword == by_position

    def test_equal_fields_equal_hash(self, cls):
        values = RECORD_SAMPLES[cls]
        a, b = cls(**values), cls(**values)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(values.values()))

    def test_other_class_with_same_fields_is_unequal(self, cls):
        values = RECORD_SAMPLES[cls]
        twin = record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
        a, b = cls(**values), twin(**values)
        assert a != b and b != a and not a == b
        assert a != tuple(values.values())

    def test_fields_are_frozen(self, cls):
        values = RECORD_SAMPLES[cls]
        a = cls(**values)
        for name in values:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == cls(**values)

    def test_defaults_apply(self, cls):
        values = RECORD_SAMPLES[cls]
        defaults = {name: vars(cls)[name] for name in values if name in vars(cls)}
        a = cls(**{name: v for name, v in values.items() if name not in defaults})
        for name, default in defaults.items():
            assert getattr(a, name) == default

    def test_bad_arguments_raise_type_error(self, cls):
        values = RECORD_SAMPLES[cls]
        first = next(iter(values))
        with pytest.raises(TypeError):
            cls(**{name: v for name, v in values.items() if name != first})
        with pytest.raises(TypeError):
            cls(**values, unknown=1)
        with pytest.raises(TypeError):
            cls(values[first], **values)
        with pytest.raises(TypeError):
            cls(*values.values(), None)

    def test_repr_names_every_field(self, cls):
        values = RECORD_SAMPLES[cls]
        fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(cls(**values)) == f"{cls.__name__}({fields})"


def test_record_repr_and_default_literal():
    assert repr(axioms.Counterexample(("e0",), 1, 2)) == "Counterexample(args=('e0',), lhs=1, rhs=2, note='')"


def test_records_differing_in_one_field_are_unequal():
    values = RECORD_SAMPLES[axioms.CheckReport]
    report = axioms.CheckReport(**values)
    for name, other in (("identity", "skew"), ("failures", 2), ("counterexamples", ())):
        assert report != axioms.CheckReport(**{**values, name: other})


def test_post_init_still_validates():
    space = two_dim()
    ident = GradedLinearMap.identity(space)
    odd = GradedLinearMap(space, 1, {"e0": Element({"e1": 1})})
    with pytest.raises(ValueError, match="unique"):
        SuperSpace(("a", "a"), (0, 1))
    with pytest.raises(ValueError, match="even"):
        rotabaxter.RotaBaxterOperator(odd, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        derivations.DerivationCandidate(ident, -1)
    with pytest.raises(algfile.AlgebraFileError, match="unknown operator kind"):
        algfile.AttachedOperator("bogus", ident)
    assert rotabaxter.RotaBaxterOperator(ident, "1/2").weight == F(1, 2)


def test_equal_brackets_and_cochains_hash_equal():
    """Equality ignores insertion order and zero values; the hash must agree."""
    space = two_dim((0, 0))
    one = {("e0", "e1"): Element({"e1": 1}), ("e1", "e0"): Element({"e1": -1})}
    reordered = {("e1", "e0"): {"e1": -1}, ("e0", "e0"): Element(), ("e0", "e1"): {"e1": F(2, 2)}}
    a, b = NaryBracket(2, one), NaryBracket(2, reordered)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, NaryBracket(2, {("e0", "e1"): {"e1": 2}})}) == 2
    phi = cochains.SuperCochain(space, 2, {("e0", "e1"): 3})
    completed = cochains.SuperCochain(space, 2, {("e1", "e0"): -3, ("e0", "e0"): 0, ("e0", "e1"): 3}, complete=False)
    assert phi == completed and hash(phi) == hash(completed)
    alpha = GradedLinearMap.identity(space)
    algebras = [multiplicative_algebra(space, bracket, alpha) for bracket in (a, b)]
    assert hash(algebras[0]) == hash(algebras[1])
    bundles = [algfile.AlgebraBundle("A", alg, (phi,), ()) for alg in algebras]
    assert hash(bundles[0]) == hash(bundles[1])
