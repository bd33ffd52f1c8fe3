"""Loader fuzzing: mutated catalog documents through ``check``, in-process.

Every catalog entry's emitted document is the seed.  Each example applies one
to three mutations: a dropped key or list item, a value swapped for one of
another type (bools where integers belong, strings, lists, null, floats),
parity 2, a matrix with a missing or an extra row or cell, a duplicated
bracket entry, basis entry or cochain value, and the scalars "1/0", a
5000-digit string, a 5000-digit denominator and a bare 5000-digit integer.

Emitted documents list every entry and say ``"skew_complete": false``; a
second run sets it true, so the loader completes the skew orbits of the
mutated entries.

``check`` must exit 0, 1 or 2 and never print a traceback.  Exit 2 is one
``error:`` line and no report; exit 1 comes only with a rendered report
that has a failing check.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import algfile, cli
from homnambu.catalog import catalog_list

DOCS = {e.name: json.loads(algfile.strip_comments(algfile.emit(e.build()))) for e in catalog_list()}
DIGITS = "7" * 5000
BARE = "bare 5000-digit integer"  # replaced by the digits themselves once the document is text
VALUES = (None, True, False, 0, 1, 2, -1, 1.5, "", "x", "0", "1/2", "1/0", DIGITS, "1/" + DIGITS, BARE, [], {}, [[]])
SUMMARY = re.compile(r"^(PASS|FAIL) \S+ \(tuples=\d+, failures=(\d+)\)$")


def paths(node, at=()):
    """The path of every node under ``node``: dict keys and list indices."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, at + (key,))


def lists(doc):
    """Paths of the lists a duplicate or a shape change applies to: tensors, bases, matrices and their rows."""
    return [p for p in paths(doc) if isinstance(get(doc, p), list) and get(doc, p)]


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, within=None):
    """A mutated catalog document; ``within`` names the top-level fields whose subtrees may change (all by default)."""
    keep = lambda p: p and (within is None or p[0] in within)
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "swap", "parity", "shape", "duplicate")))
        if not isinstance(doc, dict):
            break
        if kind == "parity":
            targets = [p for p in paths(doc) if keep(p) and p[-1] == "parity"]
            if targets:
                path = draw(st.sampled_from(targets))
                get(doc, path[:-1])[path[-1]] = draw(st.sampled_from((2, -1, True, "1")))
            continue
        if kind in ("shape", "duplicate"):
            targets = [p for p in lists(doc) if keep(p)]
            if targets:
                target = get(doc, draw(st.sampled_from(targets)))
                i = draw(st.integers(0, len(target) - 1))
                if kind == "duplicate" or draw(st.booleans()):
                    target.insert(i, json.loads(json.dumps(target[i])))
                else:
                    del target[i]
            continue
        targets = [p for p in paths(doc) if keep(p)]
        if not targets:
            continue
        path = draw(st.sampled_from(targets))
        parent = get(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(VALUES))))  # a fresh copy
    return doc


def run_check(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated())
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc, ensure_ascii=False).replace(json.dumps(BARE), DIGITS), encoding="utf-8")
    code, out, err = run_check(path)
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return
    assert err == ""
    failures = [int(m[2]) for m in map(SUMMARY.match, out.splitlines()) if m]
    assert failures
    assert (code == 1) == any(failures)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(within=("bracket", "cochains")))
def test_mutated_generating_sets_exit_0_1_or_2(tmp_path_factory, doc):
    """Documents mutated in their tensors only and read as generating sets:
    the loader completes the skew orbit of every listed entry, so the mutated
    entries and scalars meet the completion and its conflicts."""
    if isinstance(doc, dict):
        doc["skew_complete"] = True
    test_mutated_documents_exit_0_1_or_2.hypothesis.inner_test(tmp_path_factory, doc)
