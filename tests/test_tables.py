"""Differential tests: the sparse table algebra against the tuple-loop oracles.

Super-skew symmetry (both the full check and the pre-Lie first-pair check),
the Hom-Jacobi identity, the cochain-induced and nested brackets and the
Rota-Baxter kernel condition are compositions, Koszul-signed permutations
and sums of sparse tables.  ``table_oracle`` keeps the dense loops they
replaced.  Seeded random graded inputs over spaces with odd labels must
give equal reports at caps 0, 2 and unlimited, and equal tables entry for
entry.  The draws include failing inputs: non-skew tensors failing at
several swap positions, Hom-Jacobi failures at cells with x and z odd, and
random operators and cochains for the kernel condition.

The cochain identities (the coboundary, the wedge obstruction, twist
invariance and the supertrace test) are compared in the same way with the
dense loops kept in ``cochain_oracle``.
"""

import functools
import itertools
import random

import pytest

from homnambu import cli, cochains, prelie
from homnambu.axioms import check_hom_jacobi, check_super_skew
from homnambu.catalog import catalog_build
from homnambu.cochains import (
    SuperCochain,
    check_induction_conditions,
    coboundary,
    cochain_induced_bracket,
    is_supertrace,
    wedge_obstruction,
)
from homnambu.core import (
    Element,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OrbitConflict,
    complete_skew_orbit,
    multiplicative_algebra,
)
from homnambu.iterated import iterated_bracket
from homnambu.rotabaxter import check_phi_rb_kernel_condition
import cochain_oracle
import prelie_oracle
import random_inputs
import table_oracle as oracle

CAPS = (0, 2, 10**6)


def assert_same_reports(fast, slow, *args):
    """The fast report equals the oracle's at every cap; returns the uncapped one."""
    full = slow(*args, 10**6)
    for cap in CAPS:
        expected = random_inputs.capped(full, cap)
        assert slow(*args, cap) == expected
        assert fast(*args, cap) == expected
    return full


def odd_space(rng, max_dim=3):
    """A random space with at least two labels, one of them odd."""
    while True:
        space = random_inputs.space(rng, max_dim)
        if space.dim >= 2 and 1 in space.parities:
            return space


def tensor(rng, space, arity, skew):
    """Random graded entries; skew-completed when ``skew`` and the orbits allow it."""
    entries = random_inputs.graded_tensor(rng, space, arity)
    if skew:
        try:
            return complete_skew_orbit(arity, entries, space)
        except OrbitConflict:
            pass
    return entries


def twist(rng, space):
    return GradedLinearMap.identity(space) if rng.random() < 0.25 else random_inputs.graded_map(rng, space)


def skew_binary(rng, space):
    """A binary multiplicative algebra whose bracket is super-skew."""
    while True:
        try:
            entries = complete_skew_orbit(2, random_inputs.graded_tensor(rng, space, 2), space)
        except OrbitConflict:
            continue
        return multiplicative_algebra(space, NaryBracket(2, entries), twist(rng, space))


def cochain(rng, space, degree):
    """A random even super-skew cochain; retries when the generators conflict."""
    even = [a for a in itertools.product(space.labels, repeat=degree) if sum(map(space.parity, a)) % 2 == 0]
    while True:
        values = {a: rng.choice(random_inputs.VALUES) for a in even if rng.random() < 0.5}
        try:
            return SuperCochain(space, degree, values)
        except OrbitConflict:
            continue


def test_super_skew_matches_oracle():
    rng = random.Random(21)
    cases, failing, several_positions, odd_swaps = 90, 0, 0, 0
    for case in range(cases):
        space = odd_space(rng)
        n = (2, 3, 4)[case % 3]
        entries = tensor(rng, space, n, skew=rng.random() < 0.3)
        alg = HomSuperAlgebra(space, NaryBracket(n, entries), (twist(rng, space),) * (n - 1))
        full = assert_same_reports(check_super_skew, oracle.check_super_skew, alg)
        failing += not full.passed
        several_positions += len({c.note for c in full.counterexamples}) > 1
        odd_swaps += any(
            space.parity(c.args[i - 1]) and space.parity(c.args[i])
            for c in full.counterexamples
            for i in [int(c.note.split()[-1])]
        )
        if n == 3:
            t = prelie.TriProduct(space, alg.bracket, alg.twists[0])
            assert_same_reports(prelie.check_first_pair_skew, prelie_oracle.check_first_pair_skew, t)
    assert cases / 3 <= failing < cases
    assert several_positions >= cases / 4
    assert odd_swaps >= cases / 10


def test_hom_jacobi_matches_oracle():
    rng = random.Random(22)
    cases, failing, odd_xz = 80, 0, 0
    for _ in range(cases):
        space = odd_space(rng)
        entries = tensor(rng, space, 2, skew=rng.random() < 0.7)
        alg = HomSuperAlgebra(space, NaryBracket(2, entries), (twist(rng, space),))
        full = assert_same_reports(check_hom_jacobi, oracle.check_hom_jacobi, alg)
        failing += not full.passed
        odd_xz += any(space.parity(c.args[0]) * space.parity(c.args[2]) for c in full.counterexamples)
    assert cases / 4 <= failing < cases
    assert odd_xz >= cases / 10


def test_cochain_induced_bracket_matches_oracle():
    rng = random.Random(23)
    cases, nonzero = 60, 0
    for case in range(cases):
        space = odd_space(rng)
        alg = skew_binary(rng, space)
        n = 3 + case % 2
        phi = cochain(rng, space, n - 2)
        induced = cochain_induced_bracket(phi, alg, n)
        expected = oracle.cochain_induced_bracket(phi, alg, n)
        assert induced.bracket.entries == expected.bracket.entries
        assert induced == expected
        nonzero += not induced.bracket.is_zero()
    assert nonzero >= cases / 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iterated_bracket_matches_oracle(n):
    rng = random.Random(24 + n)
    cases, nonzero = 30, 0
    for _ in range(cases):
        space = odd_space(rng)
        entries = tensor(rng, space, 2, skew=rng.random() < 0.5)
        alg = multiplicative_algebra(space, NaryBracket(2, entries), twist(rng, space))
        nested = iterated_bracket(alg, n)
        expected = oracle.iterated_bracket(alg, n)
        assert nested.bracket.entries == expected.bracket.entries
        assert nested == expected
        nonzero += not nested.bracket.is_zero()
    assert nonzero >= cases / 3


def test_kernel_condition_matches_oracle():
    rng = random.Random(25)
    cases, failing = 50, 0
    for case in range(cases):
        space = odd_space(rng)
        alg = skew_binary(rng, space)
        n = 3 + case % 2
        phi = cochain(rng, space, n - 2)
        R = random_inputs.graded_map(rng, space)
        full = assert_same_reports(
            lambda *args: check_phi_rb_kernel_condition(*args).kernel, oracle.kernel_condition, R, phi, alg, n
        )
        failing += not full.passed
    assert cases / 4 <= failing < cases


def has_odd_pair_term(phi, alg):
    """Whether some f(T(p), alpha(r)) is nonzero with p = (a, b) of odd parity |a| + |b|.

    Only such terms see a sign if the coboundary's move of the pair behind
    the rest were a graded swap, (-1)^(|p||r|), instead of a relabelling.
    """
    space, alpha = alg.space, alg.twists[0]
    return any(
        phi.eval([value] + [alpha.apply_basis(a) for a in rest]) != 0
        for p, value in alg.bracket.entries.items()
        if (space.parity(p[0]) + space.parity(p[1])) % 2
        for rest in space.tuples(phi.degree - 1)
    )


def test_cochain_identities_match_oracle():
    rng = random.Random(26)
    cases, failing_wedge, nonzero_coboundary, odd_pairs, supertraces = 60, 0, 0, 0, 0
    for case in range(cases):
        degree = 1 + case % 3
        space = odd_space(rng, 3 if degree < 3 else 2)
        alg = skew_binary(rng, space)
        phi = cochain(rng, space, degree)
        delta = coboundary(phi, alg)
        assert delta == cochain_oracle.coboundary(phi, alg)
        oracle_reports = functools.cache(cochain_oracle.check_induction_conditions)  # one sweep per cap
        for part in ("wedge", "twist"):
            full = assert_same_reports(
                lambda *args: getattr(check_induction_conditions(*args), part),
                lambda *args: getattr(oracle_reports(*args), part),
                phi,
                alg,
            )
            failing_wedge += part == "wedge" and not full.passed
        supertrace = is_supertrace(phi, alg)
        assert supertrace == cochain_oracle.is_supertrace(phi, alg)
        for anchor in space.tuples(degree - 1):
            for ys in space.tuples(degree + 2):
                assert wedge_obstruction(phi, anchor, ys, alg) == cochain_oracle.wedge_obstruction(phi, anchor, ys, alg)
        nonzero_coboundary += not delta.is_zero()
        odd_pairs += has_odd_pair_term(phi, alg) and not delta.is_zero()
        supertraces += supertrace
    assert failing_wedge >= cases / 6
    assert nonzero_coboundary >= cases / 6
    assert odd_pairs >= cases / 12
    assert 0 < supertraces < cases


NON_SKEW = {("e1", "e2", "e3"): Element({"e3": 1})}  # distinct labels: no conflict
CONFLICTING = {("e1", "e1", "e1"): Element({"e1": 1})}  # e1 is even: the swap forces v = -v


@pytest.mark.parametrize("table", [NON_SKEW, CONFLICTING], ids=["non-skew", "conflicting"])
def test_skew_guard_raises_assertion(monkeypatch, capsys, table):
    """A pair sum that loses skew symmetry is an internal error (exit 3), never an input one."""
    monkeypatch.setattr(cochains, "_pair_sum", lambda *args: dict(table))
    bundle = catalog_build("L1", a=1, b=3)
    with pytest.raises(AssertionError, match="lost skew symmetry"):
        cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
    assert cli.main(["induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.rstrip().endswith("AssertionError: induced bracket lost skew symmetry")
