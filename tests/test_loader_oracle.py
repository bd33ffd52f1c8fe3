"""The document loader against its frozen reference, ``loader_reference``.

``algfile.parse`` must give a bundle equal to the reference's, with equal
``emit`` bytes, or raise an exception of the same type with the same text, on:

* every catalog document, as its builder hands it to ``load`` (a generating
  set) and as ``emit`` writes it back, and with a label outside the basis in
  a bracket entry or a cochain;
* nested osp12 documents at arities 3-5, with and without comment lines, with
  LF and with CR LF line ends;
* seeded random documents from ``random_inputs``, graded and ungraded, read
  verbatim and as generating sets;
* the loader fuzzer's mutated catalog documents, with ``skew_complete`` set
  both ways.

Each distinct scalar string is parsed once per document: the calls to
``core.parse_ratio`` are counted.
"""

from __future__ import annotations

import collections
import copy
import json
import random
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings

import loader_reference
import random_inputs
from homnambu import algfile, catalog
from homnambu.core import Element, HomSuperAlgebra, NaryBracket
from homnambu.iterated import iterated_bracket
from test_loader_fuzz import BARE, DIGITS, mutated


def outcome(read, text: str):
    """(bundle, emitted text), or (exception type, exception text)."""
    try:
        bundle = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return bundle, algfile.emit(bundle)


def assert_same(text: str):
    got, want = outcome(algfile.parse, text), outcome(loader_reference.parse, text)
    assert got == want
    return got


@cache
def catalog_documents() -> list[dict]:
    """Each catalog entry's document as its builder passes it to ``load``, then as ``emit`` writes it."""
    built, emitted = [], []
    with pytest.MonkeyPatch.context() as patch:
        load = algfile.load
        patch.setattr(algfile, "load", lambda doc: (built.append(copy.deepcopy(doc)), load(doc))[1])
        for entry in catalog.catalog_list():
            emitted.append(json.loads(algfile.strip_comments(algfile.emit(entry.build()))))
    return built + emitted


@cache
def nested_text(n: int) -> str:
    osp12 = catalog.catalog_build("osp12").algebra
    return algfile.emit(algfile.AlgebraBundle(f"osp12_iter_{n}", iterated_bracket(osp12, n)))


def commented(text: str) -> str:
    """``text`` with a comment line, indented or not, after every fifth line, and one at the end."""
    lines = text.splitlines()
    return "# a leading comment\n" + "\n".join(
        l + ("\n  # note" if i % 10 == 4 else "\n# note" if i % 5 == 4 else "") for i, l in enumerate(lines)
    ) + "\n\t# a trailing comment\n"


def random_document(seed: int, graded: bool) -> dict:
    """A seeded random algebra's document; ungraded ones get one entry whose output has the wrong parity."""
    rng = random.Random(seed)
    space = random_inputs.space(rng)
    arity = rng.randint(2, 3)
    entries = random_inputs.graded_tensor(rng, space, arity)
    if not graded:
        args = rng.choice(sorted(space.tuples(arity)))
        wrong = [l for l in space.labels if space.parity(l) != sum(map(space.parity, args)) % 2]
        if wrong:
            entries[args] = Element({rng.choice(wrong): rng.choice(random_inputs.VALUES)})
    twists = tuple(random_inputs.graded_map(rng, space) for _ in range(arity - 1))
    alg = HomSuperAlgebra(space, NaryBracket(arity, entries), twists)
    operators = [algfile.AttachedOperator("map", random_inputs.graded_map(rng, space, p), F(p, 2)) for p in (0, 1)]
    return json.loads(algfile.strip_comments(algfile.emit(algfile.AlgebraBundle(f"random_{seed}", alg, (), tuple(operators)))))


@pytest.mark.parametrize("index", range(len(catalog_documents())))
def test_catalog_documents(index):
    bundle, _ = assert_same(json.dumps(catalog_documents()[index]))
    assert isinstance(bundle, algfile.AlgebraBundle)


@pytest.mark.parametrize("index", range(len(catalog_documents())))
@pytest.mark.parametrize("where", ["args", "value", "cochain"])
def test_unknown_labels(index, where):
    """A label outside the basis in a bracket entry's arguments or value, or in a cochain's arguments."""
    doc = copy.deepcopy(catalog_documents()[index])
    if where == "cochain":
        for cochain in doc.get("cochains", []):
            cochain["values"][-1]["args"][-1] = "nope"
    elif doc["bracket"]:
        entry = doc["bracket"][-1]
        if where == "args":
            entry["args"][-1] = "nope"
        else:
            entry["value"] = {"nope" if i == 0 else l: v for i, (l, v) in enumerate(entry["value"].items())}
    assert_same(json.dumps(doc))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("comments", [False, True])
@pytest.mark.parametrize("crlf", [False, True])
def test_nested_osp12(n, comments, crlf):
    text = commented(nested_text(n)) if comments else nested_text(n)
    if crlf:
        text = text.replace("\n", "\r\n")
    bundle, emitted = assert_same(text)
    assert emitted == nested_text(n)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("graded", [True, False])
@pytest.mark.parametrize("skew_complete", [False, True])
def test_random_documents(seed, graded, skew_complete):
    doc = random_document(seed, graded)
    doc["skew_complete"] = skew_complete
    assert_same(json.dumps(doc, ensure_ascii=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated())
def test_mutated_documents(doc):
    for skew_complete in (None, False, True):
        if skew_complete is not None and isinstance(doc, dict):
            doc["skew_complete"] = skew_complete
        assert_same(json.dumps(doc, ensure_ascii=False).replace(json.dumps(BARE), DIGITS))


def test_each_distinct_scalar_string_is_parsed_once_per_document(monkeypatch):
    text = nested_text(5)
    doc = json.loads(algfile.strip_comments(text))
    strings = {v for matrix in doc["twists"] for row in matrix for v in row}
    strings |= {v for item in doc["bracket"] for v in item["value"].values()}
    calls = collections.Counter()
    parse_ratio = algfile.parse_ratio
    monkeypatch.setattr(algfile, "parse_ratio", lambda s: (calls.update([s]), parse_ratio(s))[1])
    for times in (1, 2):
        algfile.parse(text)
        assert calls == dict.fromkeys(strings, times)
