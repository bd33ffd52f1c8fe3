import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import algfile
from homnambu.algfile import AlgebraBundle, AlgebraFileError
from homnambu.catalog import catalog_build, catalog_list
from homnambu.cochains import cochain_induced_bracket
from homnambu.core import Element, OrbitConflict, format_scalar
from homnambu.iterated import iterated_bracket


def sample_doc():
    return {
        "name": "sample",
        "basis": [{"label": "e0", "parity": 0}, {"label": "e1", "parity": 1}],
        "arity": 2,
        "multiplicative": True,
        "twists": [[["1", "0"], ["0", "2"]]],
        "bracket": [{"args": ["e0", "e1"], "value": {"e1": "1"}}],
        "skew_complete": True,
    }


class TestParse:
    def test_basic_load(self):
        bundle = algfile.parse(json.dumps(sample_doc()))
        alg = bundle.algebra
        assert alg.bracket.value(("e1", "e0")) == Element({"e1": -1})
        assert alg.multiplicative_flag

    def test_comment_lines_ignored(self):
        text = "# leading comment\n" + json.dumps(sample_doc()) + "\n# trailing\n"
        assert algfile.parse(text).name == "sample"

    def test_not_json(self):
        with pytest.raises(AlgebraFileError):
            algfile.parse("{nope")

    def test_missing_field(self):
        doc = sample_doc()
        del doc["arity"]
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_bad_scalar(self):
        doc = sample_doc()
        doc["bracket"][0]["value"]["e1"] = "1.5"
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))
        doc["bracket"][0]["value"]["e1"] = "1/0"
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_orbit_conflict_detected(self):
        doc = sample_doc()
        doc["basis"] = [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}]
        doc["bracket"] = [
            {"args": ["a", "b"], "value": {"a": "1"}},
            {"args": ["b", "a"], "value": {"a": "1"}},
        ]
        with pytest.raises(OrbitConflict):
            algfile.parse(json.dumps(doc))

    def test_grading_enforced(self):
        doc = sample_doc()
        doc["bracket"] = [{"args": ["e0", "e0"], "value": {"e1": "1"}}]
        doc["skew_complete"] = False
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_odd_twist_rejected(self):
        doc = sample_doc()
        doc["twists"] = [[["0", "1"], ["1", "0"]]]
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_verbatim_tensor_not_completed(self):
        doc = sample_doc()
        doc["skew_complete"] = False
        bundle = algfile.parse(json.dumps(doc))
        assert bundle.algebra.bracket.value(("e1", "e0")).is_zero()

    @pytest.mark.parametrize("skew_complete", [True, False])
    def test_zero_entries_add_no_cell(self, skew_complete):
        """An entry whose values are all zero adds no cell to the bracket, completed or verbatim."""
        doc = sample_doc()
        doc["skew_complete"] = skew_complete
        plain = algfile.parse(json.dumps(doc)).algebra.bracket
        doc["bracket"] += [{"args": ["e1", "e1"], "value": {"e0": "0"}}, {"args": ["e0", "e0"], "value": {}}]
        bracket = algfile.parse(json.dumps(doc)).algebra.bracket
        assert bracket == plain
        assert all(bracket.table[1].values())

    def test_unknown_label_in_bracket(self):
        doc = sample_doc()
        doc["bracket"][0]["args"] = ["e0", "zz"]
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_twist_count_must_match_arity(self):
        doc = sample_doc()
        doc["multiplicative"] = False
        doc["arity"] = 3
        doc["bracket"] = []
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))

    def test_operators_and_cochains(self):
        doc = sample_doc()
        doc["cochains"] = [
            {"degree": 1, "values": [{"args": ["e0"], "value": "2/3"}]}
        ]
        doc["operators"] = [
            {
                "kind": "rota_baxter",
                "power": 0,
                "weight": "-1",
                "parity": 0,
                "matrix": [["1", "0"], ["0", "1"]],
            }
        ]
        bundle = algfile.parse(json.dumps(doc))
        assert bundle.cochains[0].value(("e0",)) == F(2, 3)
        assert bundle.operators[0].weight == -1

    def test_bad_operator_kind(self):
        doc = sample_doc()
        doc["operators"] = [
            {"kind": "mystery", "matrix": [["1", "0"], ["0", "1"]]}
        ]
        with pytest.raises(AlgebraFileError):
            algfile.parse(json.dumps(doc))


class TestEmit:
    def test_round_trip_is_byte_identical(self):
        for name, params in (
            ("g3_1_1", {"a": 5}),
            ("g5_1_1", {"a": F(1, 2)}),
            ("L1", {"a": 2, "b": 3}),
            ("osp12", {"lambda": 2}),
        ):
            bundle = catalog_build(name, **params)
            text = algfile.emit(bundle)
            reparsed = algfile.parse(text)
            assert algfile.emit(reparsed) == text

    def test_comments_survive_round_trip_stripping(self):
        bundle = catalog_build("g3_1_1", a=2)
        text = algfile.emit(bundle, comments=["hello", "world"])
        assert "# hello" in text
        assert algfile.parse(text).name == "g3_1_1"

    def test_emitted_tensor_is_verbatim(self):
        bundle = catalog_build("g3_1_1", a=2)
        doc = json.loads(algfile.strip_comments(algfile.emit(bundle)))
        assert doc["skew_complete"] is False
        args = [tuple(item["args"]) for item in doc["bracket"]]
        assert args == sorted(args, key=lambda t: tuple("e0 e1".split().index(x) for x in t))

    def test_scalars_are_fraction_strings(self):
        bundle = catalog_build("g5_1_1", a=F(1, 2))
        doc = json.loads(algfile.strip_comments(algfile.emit(bundle)))
        twist = doc["twists"][0]
        assert twist[0][0] == "1/4"
        assert twist[1][1] == "1/2"


def reference_document(bundle) -> dict:
    """The canonical dict form, built field by field from the bundle's elements and maps."""
    alg = bundle.algebra
    space = alg.space
    matrix = lambda m: [[format_scalar(v) for v in row] for row in m.matrix()]
    doc = {
        "name": bundle.name,
        "basis": [{"label": l, "parity": p} for l, p in zip(space.labels, space.parities)],
        "arity": alg.arity,
        "multiplicative": alg.multiplicative_flag,
        "twists": [matrix(t) for t in (alg.twists[:1] if alg.multiplicative_flag else alg.twists)],
        "bracket": [
            {
                "args": list(args),
                "value": {l: format_scalar(c) for l, c in sorted(alg.bracket.entries[args].coeffs.items(),
                                                                  key=lambda lc: space.index(lc[0]))},
            }
            for args in sorted(alg.bracket.entries, key=space.sort_key)
        ],
        "skew_complete": False,
    }
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
                "matrix": matrix(op.map),
            }
            for op in bundle.operators
        ]
    return doc


def _emit_cases():
    """Catalog bundles, nested and induced ones, and a relabelled L1 under awkward names."""
    for entry in catalog_list():
        bundle = entry.build()
        yield entry.name, bundle
        alg = bundle.algebra
        if alg.multiplicative_flag:
            for n in (3, 4):
                nested = iterated_bracket(alg, n)
                yield f"{entry.name}-iter-{n}", AlgebraBundle(entry.name, nested, operators=bundle.operators)
        for c in bundle.cochains:
            yield f"{entry.name}-phi", AlgebraBundle(entry.name, cochain_induced_bracket(c, alg, c.degree + 2))
    doc = json.loads(algfile.strip_comments(algfile.emit(catalog_build("L1", a=F(1, 2), b=-3))))
    text = json.dumps(doc, ensure_ascii=False)
    for old, new in (("e1", "é1"), ("e2", 'e\\"2'), ("e3", "e\\\\3\\t")):
        text = text.replace(f'"{old}"', f'"{new}"')
    relabelled = json.loads(text)
    for name in ("ünï \"q\" \\  ", 17, None, [1, {"a": [2, "é"]}], {}, 1.5, True):
        relabelled["name"] = name
        # load refuses a name that is not a string, so such a case holds the document instead
        yield f"name-{name!r}", algfile.load(relabelled) if isinstance(name, str) else dict(relabelled)
    named = [dict(relabelled, name=name) for name in ("\x00", "\x1f", "\x7f", "\u2028", "", "\U0001d400 \\\"\x08")]
    relabelled.update(name="L1", bracket=[], cochains=[{"degree": 1, "values": []}], operators=[])
    yield "empty", algfile.load(relabelled)
    for doc in named:
        yield f"name-{doc['name']!r}", algfile.load(doc)


@pytest.mark.parametrize("case, bundle", list(_emit_cases()))
def test_emit_writes_json_dumps_layout(case, bundle):
    """emit writes the document's layout directly; the text must be what json.dumps writes, byte for byte.

    A document whose name is not a string does not load, so no Python repr reaches emit.
    """
    if isinstance(bundle, dict):
        with pytest.raises(AlgebraFileError, match='^"name" must be a string$'):
            algfile.load(bundle)
        return
    expected = json.dumps(reference_document(bundle), indent=2, ensure_ascii=False)
    assert algfile.emit(bundle) == expected + "\n"
    assert algfile.emit(bundle, ["a", "b"]) == expected + "\n# a\n# b\n"


@given(st.text(st.one_of(st.sampled_from('"\\\x00\x08\x0c\n\r\t\x1f\x7f\x85\u2028\U0001d400'), st.characters())))
@settings(max_examples=300, deadline=None)
def test_emit_quotes_strings_as_json_dumps_does(text):
    """emit quotes the name and the labels through one translate table, without json: controls, quotes,
    backslashes and characters outside the BMP come out as json.dumps(s, ensure_ascii=False) writes them."""
    doc, label = sample_doc(), f"e{text}1"
    doc.update(name=text, bracket=[{"args": ["e0", label], "value": {label: "1"}}])
    doc["basis"][1]["label"] = label
    bundle = algfile.load(doc)
    assert algfile.emit(bundle) == json.dumps(reference_document(bundle), indent=2, ensure_ascii=False) + "\n"


def line_filter(text: str) -> str:
    """The comment stripping rule written as a loop over lines: lines end at CR LF, CR or LF only."""
    lines = re.split("\r\n|\r|\n", text)
    if lines[-1] == "":  # a last break ends the last line and starts none
        lines.pop()
    return "\n".join(line for line in lines if not line.lstrip(" \t").startswith("#"))


class TestLineBreaks:
    @given(st.text(alphabet="\n\r \t#a{}\"\u2028\u2029\x85\x0c\xa0", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_strip_comments_drops_exactly_the_comment_lines(self, text):
        assert algfile.strip_comments(text) == line_filter(text)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_separators_in_strings_survive_emit_and_parse(self, char):
        """str.splitlines() broke lines at these too, so an emitted name or label that held one raw no longer parsed."""
        doc = sample_doc()
        doc["name"] = f"g{char}x"
        doc["basis"][1]["label"] = f"e{char}1"
        doc["bracket"] = [{"args": ["e0", f"e{char}1"], "value": {f"e{char}1": "1"}}]
        bundle = algfile.load(doc)
        text = algfile.emit(bundle, comments=["note"])
        assert f"g{char}x" in text and f"e{char}1" in text  # written raw
        reparsed = algfile.parse(text)
        assert reparsed == bundle
        assert algfile.emit(reparsed, comments=["note"]) == text

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"name": \n', "Expecting value: line 1 column 10 (char 9)"),
            ('# c\n{"name": 1,\n  # d\n}\n', "Expecting property name enclosed in double quotes: line 2 column 1 (char 12)"),
            ('{\n  "a": 1\n  "b": 2\n}\n', "Expecting ',' delimiter: line 3 column 3 (char 13)"),
            ('{\n  "a": "x\ty"\n}\n# end\n', "Invalid control character at: line 2 column 10 (char 11)"),
        ],
    )
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_json_error_text_is_the_same_for_every_line_break(self, text, error, brk):
        with pytest.raises(AlgebraFileError) as exc:
            algfile.parse(text.replace("\n", brk))
        assert str(exc.value) == f"not valid JSON: {error}"

    def test_comment_line_may_be_indented_by_spaces_and_tabs_only(self):
        text = json.dumps(sample_doc())
        assert algfile.parse(" \t# note\n" + text).name == "sample"
        with pytest.raises(AlgebraFileError, match="not valid JSON"):
            algfile.parse("\xa0# note\n" + text)
