"""The derivation constraint rows on nested osp12, frozen, and the work that normalises them.

``nested_osp12_rows.json`` holds the rows ``derivation_constraints`` gave for
the even maps at arities 4 and 5 and powers k = 0, 1, 2, as the solver wrote
them before it normalised each distinct raw residual row only once; the rows
and their order must not change.  Many raw rows repeat (at arity 5 the
Leibniz scatter gives 888 raw rows, 259-261 of them distinct), and the solver
must pass each distinct one to ``primitive_ints`` once.
"""

import collections
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from homnambu import catalog, derivations, linalg
from homnambu.iterated import iterated_bracket

FROZEN = json.loads(Path(__file__).with_name("nested_osp12_rows.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_rows_are_frozen_and_each_distinct_raw_row_is_normalised_once(n, k, monkeypatch):
    alg = iterated_bracket(catalog.catalog_build("osp12").algebra, n)
    calls = []  # the solver's own calls; the nullspace's go to linalg itself
    counting = lambda vec: (calls.append(vec), linalg.primitive_ints(vec))[1]
    monkeypatch.setattr(derivations, "linalg", SimpleNamespace(primitive_ints=counting, nullspace=linalg.nullspace))
    rows, _ = derivations.derivation_constraints(alg, k, 0)
    assert rows == FROZEN[f"{n},{k}"]
    assert calls and max(collections.Counter(calls).values()) == 1
