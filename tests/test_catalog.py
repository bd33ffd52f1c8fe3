import json
from fractions import Fraction as F

import pytest

from homnambu import algfile
from homnambu.axioms import (
    check_grading,
    check_hom_jacobi,
    check_multiplicative,
    check_super_skew,
)
from homnambu.catalog import (
    CatalogError,
    catalog_build,
    catalog_entry,
    catalog_list,
    hom_lie_entries,
)
from homnambu.core import Element, GradedLinearMap

from catalog_reference import BUILDERS

CHECKS = {
    "grading": check_grading,
    "super-skew": check_super_skew,
    "hom-jacobi": check_hom_jacobi,
    "multiplicative": check_multiplicative,
}

# three admissible parameter choices per entry, as exercised in CI
PARAM_CHOICES = {
    "g1_0_2": [{"a": 1}, {"a": 2}, {"a": F(-1, 2)}],
    "g2_1_1": [{"a": 1}, {"a": 3}, {"a": F(2, 7)}],
    "g3_1_1": [{"a": 2}, {"a": F(1, 2)}, {"a": -3}],
    "g4_1_1": [{"a": 2}, {"a": F(1, 2)}, {"a": -3}],
    "g5_1_1": [{"a": 2}, {"a": F(1, 2)}, {"a": -3}],
    "osp12": [{"lambda": 2}, {"lambda": F(1, 2)}, {"lambda": -1}],
    "L1": [{"a": 1, "b": 3}, {"a": 2, "b": 5}, {"a": F(-1, 2), "b": F(7, 3)}],
    "L2": [
        {"a": 1, "b": 2, "c": 3},
        {"a": 2, "b": 1, "c": -1},
        {"a": F(1, 2), "b": 3, "c": 5},
    ],
}


def test_every_entry_has_choices():
    assert {e.name for e in catalog_list()} == set(PARAM_CHOICES)


@pytest.mark.parametrize("name", sorted(PARAM_CHOICES))
def test_declared_profile_for_three_parameter_choices(name):
    entry = catalog_entry(name)
    for params in PARAM_CHOICES[name]:
        alg = entry.build(**params).algebra
        for identity in entry.profile:
            assert CHECKS[identity](alg).passed, (name, params, identity)


class TestConstraints:
    def test_g4_excludes_zero_and_one(self):
        for a in (0, 1):
            with pytest.raises(CatalogError):
                catalog_build("g4_1_1", a=a)

    def test_g5_excludes_zero(self):
        with pytest.raises(CatalogError):
            catalog_build("g5_1_1", a=0)

    def test_osp_excludes_zero(self):
        with pytest.raises(CatalogError):
            catalog_build("osp12", **{"lambda": 0})

    def test_unknown_entry(self):
        with pytest.raises(CatalogError):
            catalog_build("nope")

    def test_unknown_parameter(self):
        with pytest.raises(CatalogError):
            catalog_build("g3_1_1", q=1)

    def test_lambda_with_its_alias_is_rejected(self):
        for params in ({"lambda": 2, "λ": 3}, {"λ": 3, "lambda": 2}, {"lambda": 2, "λ": 2}):
            with pytest.raises(CatalogError, match="parameter lambda given twice"):
                catalog_build("osp12", **params)

    def test_lambda_alias(self):
        a = catalog_build("osp12", **{"λ": 2}).algebra
        b = catalog_build("osp12", **{"lambda": 2}).algebra
        assert a.bracket == b.bracket


class TestEntryContents:
    def test_g5_structure(self):
        alg = catalog_build("g5_1_1", a=2).algebra
        assert alg.bracket.value(("e1", "e1")) == Element({"e0": 1})
        assert alg.bracket.value(("e0", "e1")).is_zero()
        assert alg.twists[0].matrix() == [[4, 0], [0, 2]]

    def test_osp_untwisted_is_lie(self):
        bundle = catalog_build("osp12", **{"lambda": 1})
        alg = bundle.algebra
        assert alg.twists[0] == GradedLinearMap.identity(alg.space)
        assert check_hom_jacobi(alg).passed

    def test_osp_defining_relations(self):
        alg = catalog_build("osp12", **{"lambda": 1}).algebra
        assert alg.bracket.value(("H", "X")) == Element({"X": 2})
        assert alg.bracket.value(("H", "Y")) == Element({"Y": -2})
        assert alg.bracket.value(("F", "F")) == Element({"Y": 2})
        assert alg.bracket.value(("G", "F")) == Element({"H": 1})
        assert alg.bracket.value(("F", "G")) == Element({"H": 1})

    def test_L1_carries_form_and_operator(self):
        bundle = catalog_build("L1", a=2, b=7)
        assert bundle.cochains[0].value(("e2",)) == 7
        assert bundle.operators[0].kind == "rota_baxter"
        assert bundle.operators[0].weight == 0

    def test_documented_jacobi_failures(self):
        for name in ("L1", "L2"):
            entry = catalog_entry(name)
            assert "hom-jacobi" not in entry.profile
            assert not check_hom_jacobi(entry.build().algebra).passed

    def test_hom_lie_entries_helper(self):
        names = {e.name for e in hom_lie_entries()}
        assert names == {"g1_0_2", "g2_1_1", "g3_1_1", "g4_1_1", "g5_1_1", "osp12"}


# zero, negative and fractional values where admissible, beside the three choices above
MORE_CHOICES = {
    "g1_0_2": [{"a": 0}, {"a": -7}],
    "g2_1_1": [{"a": 0}, {"a": F(-9, 4)}],
    "g3_1_1": [{"a": 0}, {"a": F(-2, 5)}],
    "g4_1_1": [{"a": -1}, {"a": F(5, 3)}],
    "g5_1_1": [{"a": -1}, {"a": F(-3, 8)}],
    "osp12": [{"lambda": F(-2, 3)}, {"lambda": 5}],
    "L1": [{"a": 3, "b": 0}, {"a": -3, "b": F(-1, 4)}],
    "L2": [{"a": -1, "b": 0, "c": 0}, {"a": F(-5, 3), "b": F(1, 7), "c": -2}],
}
REFERENCE_CHOICES = {name: [{}] + PARAM_CHOICES[name] + MORE_CHOICES[name] for name in PARAM_CHOICES}


@pytest.mark.parametrize(
    "name, params", [(name, params) for name in sorted(REFERENCE_CHOICES) for params in REFERENCE_CHOICES[name]]
)
def test_entry_matches_its_reference_builder(name, params):
    """The document an entry hands the loader gives the bundle its old builder made, record for record and byte for byte."""
    entry = catalog_entry(name)
    resolved = {p.name: F(params.get(p.name, p.default)) for p in entry.parameters}
    expected = BUILDERS[name](resolved)
    bundle = catalog_build(name, **params)
    assert bundle == expected
    assert algfile.emit(bundle) == algfile.emit(expected)


def test_every_entry_is_a_plain_document_read_by_the_loader(monkeypatch):
    documents = []
    load = algfile.load

    def recording_load(doc):
        documents.append(doc)
        return load(doc)

    monkeypatch.setattr(algfile, "load", recording_load)
    for entry in catalog_list():
        bundle = entry.build()
        assert documents[-1]["name"] == entry.name
        assert json.loads(json.dumps(documents[-1])) == documents[-1]  # only JSON types: lists, strings, integers
        assert bundle == load(documents[-1])
    assert len(documents) == len(catalog_list())
