"""Differential tests: the derivation solver against the brute-force oracle.

Random small multiplicative graded algebras (dimension 1-4, arity 2-4, random
parities, sparse rational structure constants with denominators, given either
as skew generators completed over their orbits or as a raw tensor) are solved
with ``solve_derivation_space`` and with the dense assembly and Gauss-Jordan
elimination in ``derivation_oracle``; the nullspace vectors must be equal, in
equal order.  The shared twist is diagonal, shear (several terms per column),
singular or zero, and every power k in {0, 1, 2} and parity is tried.  The
same comparison runs on every catalog entry and on nested osp12.

Half of the random algebras are Grassmann envelopes: a drawn algebra
tensored with the exterior algebra on one odd direction theta.  d/dtheta is
then an odd power-0 derivation whose Leibniz sign is the Koszul sign itself,
so these draws reach the sign that plain random algebras almost never do.
Every solved map is also re-verified with ``check_derivation``, which pins
the sign of the shared slot-wise Leibniz sum.

The constraint rows themselves are compared with ``constraints_staged``,
the solver's two stages run the slow way (the commuting maps from
``dense_rref``, one Leibniz scatter per commuting basis map): on the same
random algebras and on nested osp12 at arities 3, 4 and 5, both must give
the same set of primitive rows over the same variables, and their row space
must be that of ``constraints_per_unit``, one scatter per matrix unit.  A
counting kernel pins the work on nested osp12: one bracket scatter, tagged
by the five diagonal units that commute with its twist, for even maps, none
for odd ones, and a tag per unknown under the identity twist.
"""

import itertools
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from homnambu import derivations
from homnambu.catalog import catalog_build, catalog_list
from homnambu.core import (
    Element,
    GradedLinearMap,
    NaryBracket,
    SuperSpace,
    complete_skew_orbit,
    integer_table,
    multiplicative_algebra,
)
from homnambu.derivations import (
    DerivationCandidate,
    check_derivation,
    derivation_constraints,
    derivation_variables,
    solve_derivation_space,
)
from homnambu.iterated import iterated_bracket
from derivation_oracle import constraints_per_unit, constraints_staged, row_space, solve_oracle
from test_nambu_kernel import even_maps, rationals

TWIST_KINDS = ("diagonal", "shear", "singular", "zero")


def grassmann_envelope(alg):
    """``alg`` tensored with the exterior algebra on one odd generator theta.

    Each label l gains a partner "t" + l of opposite parity standing for
    theta * l.  A bracket with theta in slot j moves it to the front past
    x_1 .. x_{j-1}, at the sign (-1)^(p_1 + .. + p_{j-1}); two thetas give
    zero; the twist acts alike on both copies.
    """
    space = alg.space
    theta = {l: "t" + l for l in space.labels}
    big = SuperSpace(
        space.labels + tuple(theta.values()), space.parities + tuple(1 - p for p in space.parities)
    )

    def lift(e):
        return Element({theta[l]: c for l, c in e.coeffs.items()})

    entries = dict(alg.bracket.entries)
    for args, value in alg.bracket.entries.items():
        odd_prefix = 0
        for j, a in enumerate(args):
            entries[args[:j] + (theta[a],) + args[j + 1 :]] = -lift(value) if odd_prefix else lift(value)
            odd_prefix ^= space.parity(a)
    alpha = alg.twists[0]
    cols = {l: alpha.apply_basis(l) for l in space.labels}
    cols.update({theta[l]: lift(alpha.apply_basis(l)) for l in space.labels})
    return multiplicative_algebra(big, NaryBracket(alg.arity, entries), GradedLinearMap(big, 0, cols))


@st.composite
def multiplicative_algebras(draw):
    envelope = draw(st.booleans())
    dim = draw(st.integers(1, 2 if envelope else 4))
    n = draw(st.integers(2, 4))
    labels = tuple(f"e{i}" for i in range(dim))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
    space = SuperSpace(labels, parities)
    skew = draw(st.booleans())
    if skew:
        # sorted index tuples repeating only odd labels: no orbit forces v = -v
        pool = [
            args
            for args in itertools.combinations_with_replacement(labels, n)
            if all(space.parity(a) for a, b in zip(args, args[1:]) if a == b)
        ]
    else:
        pool = list(itertools.product(labels, repeat=n))
    size = draw(st.sampled_from((2, 4, 8)))
    support = draw(st.lists(st.sampled_from(pool), max_size=size, unique=True)) if pool else []
    generators = {}
    for args in support:
        want = sum(space.parity(a) for a in args) % 2
        outputs = [l for l in labels if space.parity(l) == want]
        if outputs:
            outs = draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=2, unique=True))
            generators[args] = {l: draw(rationals) for l in outs}
    table = integer_table(generators)
    bracket = NaryBracket.of_table(n, complete_skew_orbit(n, table, space) if skew else table)
    kind = draw(st.sampled_from(TWIST_KINDS))
    alpha = GradedLinearMap.zero(space) if kind == "zero" else draw(even_maps(space, kind))
    event(f"dim {dim}, arity {n}, {'skew' if skew else 'raw'}, {kind} twist")
    event("grassmann envelope" if envelope else "plain")
    alg = multiplicative_algebra(space, bracket, alpha)
    return grassmann_envelope(alg) if envelope else alg


def assert_same_rows(alg, k, parity):
    """The staged one-pass rows against the staged oracle: same set, same variables; and the
    same row space as one scatter per matrix unit."""
    rows, variables = derivation_constraints(alg, k, parity)
    expected, expected_variables = constraints_staged(alg, k, parity)
    assert variables == expected_variables
    assert len(set(map(tuple, rows))) == len(rows)
    assert set(map(tuple, rows)) == set(map(tuple, expected))
    for row in rows:  # primitive: gcd 1, first nonzero entry positive
        nonzero = [v for v in row if v]
        assert nonzero[0] > 0 and math.gcd(*nonzero) == 1
    assert row_space(rows) == row_space(constraints_per_unit(alg, k, parity)[0])


@settings(max_examples=300, deadline=None)
@given(multiplicative_algebras(), st.integers(0, 2), st.integers(0, 1))
def test_rows_match_per_unit_oracle(alg, k, parity):
    assert_same_rows(alg, k, parity)


def assert_matches_oracle(alg, k, parity):
    variables = derivation_variables(alg.space, parity)
    expected = solve_oracle(alg, k, parity)
    maps = solve_derivation_space(alg, k, parity)
    got = [[m.apply_basis(c).coeffs.get(r, 0) for r, c in variables] for m in maps]
    assert got == expected
    rows, _ = derivation_constraints(alg, k, parity)
    assert len(set(map(tuple, rows))) == len(rows)
    return expected


@settings(max_examples=300, deadline=None)
@given(multiplicative_algebras(), st.integers(0, 2), st.integers(0, 1))
def test_solver_matches_oracle(alg, k, parity):
    basis = assert_matches_oracle(alg, k, parity)
    event(f"{'nonzero' if basis else 'zero'} parity-{parity} derivation space")
    for m in solve_derivation_space(alg, k, parity):
        assert check_derivation(DerivationCandidate(m, k), alg).passed


POWERS_AND_PARITIES = [(k, parity) for k in (0, 1, 2) for parity in (0, 1)]


@pytest.mark.parametrize("name", [e.name for e in catalog_list()])
@pytest.mark.parametrize("k,parity", POWERS_AND_PARITIES)
def test_catalog_matches_oracle(name, k, parity):
    assert_matches_oracle(catalog_build(name).algebra, k, parity)


# arity 5 costs the oracle about a second per call, so it runs at one power
@pytest.mark.parametrize(
    "n,k,parity",
    [(n, k, parity) for n in (3, 4) for k, parity in POWERS_AND_PARITIES]
    + [(5, 1, 0), (5, 1, 1)],
)
def test_nested_osp12_matches_oracle(n, k, parity):
    assert_matches_oracle(iterated_bracket(catalog_build("osp12").algebra, n), k, parity)


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("k,parity", POWERS_AND_PARITIES)
def test_nested_osp12_rows_match_per_unit_oracle(n, k, parity):
    assert_same_rows(iterated_bracket(catalog_build("osp12").algebra, n), k, parity)


def counted_scatters(monkeypatch):
    """(arity, tags) of every scatter the derivation module's kernels run, in order."""
    scatters = []
    kernel = derivations._leibniz_kernel

    def counting_kernel(*args):
        scatter = kernel(*args)

        def counted(out_cols, slot_cols, odd, cell=None):
            tags = {tag for cols in (out_cols, *slot_cols) for image in cols.values() for _, _, tag in image}
            scatters.append((len(slot_cols), len(tags)))
            return scatter(out_cols, slot_cols, odd, cell)

        vars(counted).update(vars(scatter))  # the sweep reads the kernel's space, outputs and scale
        return counted

    monkeypatch.setattr(derivations, "_leibniz_kernel", counting_kernel)
    return scatters


@pytest.mark.parametrize("k", (0, 1, 2))
def test_bracket_scatter_tags_only_the_commuting_maps(monkeypatch, k):
    """On nested osp12 the twist has distinct eigenvalues: only the five diagonal units
    commute with it and no odd map does, so odd maps skip the bracket's scatter."""
    alg = iterated_bracket(catalog_build("osp12").algebra, 4)
    scatters = counted_scatters(monkeypatch)
    derivation_constraints(alg, k, 1)
    assert scatters == [(1, len(derivation_variables(alg.space, 1)))]
    scatters.clear()
    derivation_constraints(alg, k, 0)
    assert scatters == [(1, len(derivation_variables(alg.space, 0))), (4, 5)]


@pytest.mark.parametrize("parity", (0, 1))
def test_identity_twist_tags_every_unknown(monkeypatch, parity):
    nested = iterated_bracket(catalog_build("osp12").algebra, 4)
    alg = multiplicative_algebra(nested.space, nested.bracket, GradedLinearMap.identity(nested.space))
    scatters = counted_scatters(monkeypatch)
    derivation_constraints(alg, 1, parity)
    m = len(derivation_variables(alg.space, parity))
    assert scatters == [(1, m), (4, m)]
    assert_same_rows(alg, 1, parity)
