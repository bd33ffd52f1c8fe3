import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import algfile, axioms, catalog, cochains, core, derivations, rotabaxter
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OrbitConflict,
    SuperSpace,
    adjacent_transposition_sign,
    complete_skew_orbit,
    eval_bracket,
    map_compose,
    map_power,
    multiplicative_algebra,
    koszul_sign,
    pair_extraction_sign,
    record,
    scalar,
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
    entries = complete_skew_orbit(2, {("e0", "e1"): Element({"e1": 1})}, space)
    alpha = GradedLinearMap.from_matrix(space, [[1, 0], [0, a]])
    return multiplicative_algebra(space, NaryBracket(2, entries), alpha)


def g5(a=2):
    space = two_dim()
    entries = complete_skew_orbit(2, {("e1", "e1"): Element({"e0": 1})}, space)
    alpha = GradedLinearMap.from_matrix(space, [[a * a, 0], [0, a]])
    return multiplicative_algebra(space, NaryBracket(2, entries), alpha)


class TestScalar:
    def test_parse_and_format(self):
        assert scalar("3/6") == F(1, 2)
        assert scalar(-4) == F(-4)
        assert format_scalar(F(2, 4)) == "1/2"
        assert format_scalar(F(-3)) == "-3"

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            scalar(0.5)


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
        entries = complete_skew_orbit(2, {("e0", "e1"): Element({"e1": 1})}, space)
        assert entries[("e1", "e0")] == Element({"e1": -1})

    def test_odd_square_is_fixed_point(self):
        space = two_dim()
        entries = complete_skew_orbit(2, {("e1", "e1"): Element({"e0": 1})}, space)
        assert entries[("e1", "e1")] == Element({"e0": 1})

    def test_even_square_conflicts(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0)])
        with pytest.raises(OrbitConflict):
            complete_skew_orbit(2, {("a", "a"): Element({"b": 1})}, space)

    def test_inconsistent_generators_conflict(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 0), ("v", 0)])
        with pytest.raises(OrbitConflict):
            complete_skew_orbit(
                2,
                {("a", "b"): Element({"v": 1}), ("b", "a"): Element({"v": 1})},
                space,
            )

    def test_idempotent(self):
        space = SuperSpace.from_pairs([("a", 0), ("b", 1), ("c", 1)])
        first = complete_skew_orbit(
            3, {("a", "b", "c"): Element({"a": F(2, 3)})}, space
        )
        assert complete_skew_orbit(3, first, space) == first

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=3, max_size=4),
        st.sampled_from((Element({"out": 1}), F(2, 3))),
        st.sampled_from((None, (1,))),
    )
    def test_orbit_signs_match_permutation_oracle(self, parities, value, swaps):
        """Bracket values and cochain scalars alike; with ``swaps=(1,)`` only the
        first-pair transposition is applied, so the orbit has two tuples."""
        labels = [f"b{i}" for i in range(len(parities))]
        space = SuperSpace.from_pairs(list(zip(labels, parities)) + [("out", 0)])
        seed = tuple(labels)
        zero = value - value
        entries = complete_skew_orbit(len(labels), {seed: value}, space, swaps=swaps)
        for perm in itertools.permutations(range(len(labels))):
            key = tuple(labels[i] for i in perm)
            if swaps is None or perm[2:] == tuple(range(2, len(labels))):
                sign = permutation_sign(parities, list(perm))
                expected = value if sign > 0 else -value
            else:
                expected = zero
            assert entries.get(key, zero) == expected


# ---------------------------------------------------------------------------
# Frozen records
# ---------------------------------------------------------------------------

RECORD_MODULES = (algfile, axioms, catalog, cochains, core, derivations, rotabaxter)


def record_classes():
    """Every class in the engine that :func:`record` decorated."""
    return {
        obj
        for module in RECORD_MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__init__.__qualname__ == "record.<locals>.__init__"
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
    }


RECORD_SAMPLES = record_samples()


def test_every_record_class_has_a_sample():
    assert set(RECORD_SAMPLES) == record_classes()
    assert len(RECORD_SAMPLES) == 16


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
        try:
            expected = hash(tuple(values.values()))
        except TypeError:  # a field is unhashable, as NaryBracket is
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

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
