"""Differential tests: the Nambu kernel against the brute-force oracle.

Random small graded algebras (dimension 1-4, arity 3-4, random parities,
sparse rational structure constants with denominators) are checked with
``check_nambu_identity`` and with the exhaustive sweep in ``nambu_oracle``;
the reports must be equal at every counterexample cap.  Twists are diagonal,
shear (several terms per column), singular, or drawn separately per slot.

Half of the algebras are "central": every output lands in labels that no
entry takes as an input, so both sides of the identity vanish and the check
must pass; the rest are unconstrained and almost always fail.

The kernel's sweep (``axioms._leibniz_sweep``) runs its scatter once per
primitive input (the x-tuple's adjoint pair divided by its gcd), so a
second family draws algebras whose x-rows are scalar multiples of one
shared row: x-tuples then share a memo entry at different scales, and the
counterexamples rebuilt from it must match the oracle exactly.  The work-count test pins how many scatters the nested osp12
brackets need.

The kernel indexes its terms from spectator picks built once per support
prefix and suffix; two seeded families aim at that build: twists under
which a label has no preimage and meets it in a middle slot, and twists
under which two labels have two preimages each, met on both sides of the
differentiated slot (``random_inputs.hard_map``).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from homnambu import axioms
from homnambu.axioms import check_nambu_identity
from homnambu.catalog import catalog_build
from homnambu.core import GradedLinearMap, HomSuperAlgebra, NaryBracket, SuperSpace
from homnambu.iterated import iterated_bracket
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


SCALES = tuple(F(v) for v in (1, -1, 2, -2, F(1, 2), F(-1, 2), 3, -3))
SHARED_ROW_TWISTS = ("diagonal", "shear", "per-slot", "cancel")
# few twist entries, so that x-tuples at different row scales often twist alike
small = st.sampled_from((F(1), F(-1), F(2)))


@st.composite
def small_even_maps(draw, space, kind):
    """An even matrix from a few entries: a scalar or diagonal, plus same-parity shears if "shear"."""
    d = space.dim
    rows = [[F(0)] * d for _ in range(d)]
    scalar = draw(st.one_of(st.none(), small))
    for i in range(d):
        rows[i][i] = draw(small) if scalar is None else scalar
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j and space.parities[i] == space.parities[j]]
    if kind == "shear" and pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2)):
            rows[i][j] = draw(small)
    return GradedLinearMap.from_matrix(space, rows, parity=0)


@st.composite
def shared_row_algebras(draw):
    """T(p, b) = s_p R(b): every x-row a scale s_p in SCALES times one shared row R.

    "cancel" twists the first slot's j onto j + i and gives the prefixes
    (j, ..) and (i, ..) opposite scales, so ad_{ax} at x = (j, ..) sums to zero.
    """
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(3, 4))
    labels = tuple(f"e{i}" for i in range(dim))
    space = SuperSpace(labels, tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))))
    central = draw(st.booleans())
    if central:
        outputs = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=dim - 1, unique=True))
        inputs = [l for l in labels if l not in outputs]
    else:
        inputs = outputs = labels
    row = {
        b: {l: draw(rationals) for l in draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=2, unique=True))}
        for b in draw(st.lists(st.sampled_from(inputs), min_size=1, max_size=2, unique=True))
    }
    pool = list(itertools.product(inputs, repeat=n - 1))
    prefixes = draw(st.lists(st.sampled_from(pool), min_size=min(2, len(pool)), max_size=4, unique=True))
    scale = {p: draw(st.sampled_from(SCALES)) for p in prefixes}
    kind = draw(st.sampled_from(SHARED_ROW_TWISTS))
    twists = [draw(small_even_maps(space, "shear" if kind == "shear" else "diagonal"))] * (n - 1)
    if kind == "per-slot":
        twists = [draw(small_even_maps(space, draw(st.sampled_from(("diagonal", "shear"))))) for _ in range(n - 1)]
    pairs = [(i, j) for i in inputs for j in inputs if i != j and space.parity(i) == space.parity(j)]
    if kind == "cancel" and pairs:
        i, j = draw(st.sampled_from(pairs))
        rest = prefixes[0][1:]
        scale.setdefault((j,) + rest, draw(st.sampled_from(SCALES)))
        scale[(i,) + rest] = -scale[(j,) + rest]
        shear = {l: {l: 1} for l in labels}
        shear[j] = {j: 1, i: 1}
        twists[0] = GradedLinearMap(space, 0, shear)
    elif kind == "cancel":
        kind = "diagonal"
    entries = {p + (b,): {l: s * c for l, c in row[b].items()} for p, s in scale.items() for b in row}
    event(f"arity {n}, {kind} twists")
    return HomSuperAlgebra(space, NaryBracket(n, entries), tuple(twists)), central


def _scales_by_key(alg, cap):
    """The report at ``cap``; per primitive key, the scales of the x-tuples that looked it up;
    and whether some ad_{ax} had a term cancel to zero."""
    scales = {}
    cancelled = []
    primitive = axioms._primitive

    def spy(odd, delta, out, *slots):
        cancelled.extend(v for image in out[1].values() for v in image.values() if not v)
        g, key = primitive(odd, delta, out, *slots)
        scales.setdefault(key, []).append(g)
        return g, key

    with mock.patch.object(axioms, "_primitive", spy):
        report = check_nambu_identity(alg, cap)
    return report, scales, bool(cancelled)


@settings(max_examples=200, deadline=None)
@given(shared_row_algebras())
def test_scaled_shared_rows_match_oracle_at_every_cap(case):
    alg, central = case
    full = nambu_oracle(alg, cap=max(CAPS))
    if central:
        assert full.passed
    for cap in CAPS:
        report, scales, cancelled = _scales_by_key(alg, cap)
        assert report == random_inputs.capped(full, cap)
    rescaled = any(len(set(gs)) > 1 for gs in scales.values())
    event(f"{'passes' if full.passed else 'fails'}, {'a memo hit at another scale' if rescaled else 'no rescaled hit'}")
    if cancelled:
        event("an ad_{ax} term cancels to zero")


def test_rescaled_memo_hits_on_passing_and_failing_inputs():
    """Two prefixes at scales 2 and -1/2 share one key under a scalar twist; a central
    row passes and a self-feeding row fails, and both match the oracle at every cap."""
    space = SuperSpace(("e0", "e1", "e2"), (0, 0, 0))
    twist = GradedLinearMap.from_matrix(space, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    for out, passes in (("e2", True), ("e0", False)):
        entries = {("e0", "e0", "e1"): {out: F(2)}, ("e1", "e0", "e1"): {out: F(-1, 2)}}
        alg = HomSuperAlgebra(space, NaryBracket(3, entries), (twist, twist))
        full = nambu_oracle(alg, cap=max(CAPS))
        assert full.passed is passes
        for cap in CAPS:
            report, scales, _ = _scales_by_key(alg, cap)
            assert report == random_inputs.capped(full, cap)
            assert any(len(set(gs)) > 1 for gs in scales.values())


@pytest.mark.parametrize("kind", random_inputs.HARD_POOLS)
def test_hard_preimage_pools_match_oracle(kind):
    """Twists under which e1 has no preimage, met in a middle slot, or under which e0
    and e1 have two preimages each, met left and right of the differentiated slot.

    Half the algebras are central (inputs e0 and e1 only, outputs e2) and so pass.
    """
    rng = random.Random(23)
    cases, hits, failing = 24, 0, 0
    for case in range(cases):
        space = random_inputs.hard_space(rng)
        n = rng.choice((3, 3, 4))
        central = case % 2 == 0
        entries = random_inputs.graded_tensor(
            rng, space, n, *((("e0", "e1"), ("e2",)) if central else ()), density=0.5
        )
        twists = tuple(random_inputs.hard_map(rng, space, kind) for _ in range(n - 1))
        alg = HomSuperAlgebra(space, NaryBracket(n, entries), twists)
        full = nambu_oracle(alg, cap=10**6)
        for cap in (0, 2, 10**6):
            assert check_nambu_identity(alg, cap) == random_inputs.capped(full, cap)
        hits += random_inputs.hits_hard_pool(entries, kind)
        failing += not full.passed
    assert hits >= cases / 2
    assert cases / 4 <= failing <= cases / 2


def test_one_scatter_per_primitive_input_on_nested_osp12():
    """Nested osp12 at arity 3, 4 and 5 has 18, 66 and 242 relevant x-tuples but
    only 5 distinct primitive inputs at each arity; coverage still counts d^(2n-1)."""
    scatters = Counter()
    kernel = axioms._leibniz_kernel

    def counting_kernel(*args):
        scatter = kernel(*args)

        def counted(*a, **k):
            scatters[n] += 1
            return scatter(*a, **k)

        vars(counted).update(vars(scatter))  # the sweep reads the kernel's space, outputs and scale, the Nambu check its index
        return counted

    alg = catalog_build("osp12").algebra
    with mock.patch.object(axioms, "_leibniz_kernel", counting_kernel):
        for n in (3, 4, 5):
            report = check_nambu_identity(iterated_bracket(alg, n))
            assert report.passed
            assert report.tuples_checked == alg.space.dim ** (2 * n - 1)
    assert scatters == {3: 5, 4: 5, 5: 5}
