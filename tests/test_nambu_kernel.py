"""Differential tests: the Nambu kernel against the brute-force oracle.

Random small graded algebras (dimension 1-4, arity 3-4, random parities,
sparse rational structure constants with denominators) are checked with
``check_nambu_identity`` and with the exhaustive sweep in ``nambu_oracle``;
the reports must be equal at every counterexample cap.  Twists are diagonal,
shear (several terms per column), singular, or drawn separately per slot.

Half of the algebras are "central": every output lands in labels that no
entry takes as an input, so both sides of the identity vanish and the check
must pass; the rest are unconstrained and almost always fail.
"""

import itertools
from fractions import Fraction as F

from hypothesis import event, given, settings
from hypothesis import strategies as st

from homnambu.axioms import check_nambu_identity
from homnambu.core import GradedLinearMap, HomSuperAlgebra, NaryBracket, SuperSpace
from nambu_oracle import nambu_oracle
import random_inputs

CAPS = (0, 1, 16, 10**6)
TWIST_KINDS = ("diagonal", "shear", "singular", "per-slot")

rationals = st.builds(
    F, st.sampled_from((1, 2, 3, -1, -2, -3)), st.sampled_from((1, 1, 2, 3))
)


@st.composite
def even_maps(draw, space, kind):
    """An even matrix: diagonal, diagonal plus same-parity shears, or singular."""
    d = space.dim
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = draw(rationals)
    if kind in ("shear", "singular"):
        pairs = [
            (i, j)
            for i in range(d)
            for j in range(d)
            if i != j and space.parities[i] == space.parities[j]
        ]
        if pairs:
            for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3)):
                rows[i][j] = draw(rationals)
    if kind == "singular":
        for j in draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d)):
            for i in range(d):
                rows[i][j] = F(0)
    return GradedLinearMap.from_matrix(space, rows, parity=0)


@st.composite
def graded_algebras(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(3, 4))
    labels = tuple(f"e{i}" for i in range(dim))
    space = SuperSpace(labels, tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))))
    central = draw(st.booleans())
    if central:
        outputs = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        inputs = [l for l in labels if l not in outputs]
    else:
        inputs = outputs = labels
    tuples = list(itertools.product(inputs, repeat=n))
    support = []
    if tuples:
        support = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=10, unique=True))
    entries = {}
    for args in support:
        outs = draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=2, unique=True))
        entries[args] = {l: draw(rationals) for l in outs}
    kind = draw(st.sampled_from(TWIST_KINDS))
    if kind == "per-slot":
        kinds = [draw(st.sampled_from(TWIST_KINDS[:3])) for _ in range(n - 1)]
        twists = tuple(draw(even_maps(space, k)) for k in kinds)
    else:
        twists = (draw(even_maps(space, kind)),) * (n - 1)
    event(f"dim {dim}, arity {n}, {kind} twists")
    return HomSuperAlgebra(space, NaryBracket(n, entries), twists), central


@settings(max_examples=120, deadline=None)
@given(graded_algebras())
def test_kernel_matches_oracle_at_every_cap(case):
    alg, central = case
    full = nambu_oracle(alg, cap=max(CAPS))
    event("passes" if full.passed else f"fails, failures {'>' if full.failures > 16 else '<='} 16")
    if central:
        assert full.passed
    for cap in CAPS:
        expected = random_inputs.capped(full, cap)
        assert check_nambu_identity(alg, cap) == expected
