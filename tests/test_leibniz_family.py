"""Differential tests: the shared Leibniz cell loop against the old per-checker loops.

``check_derivation``, ``check_quasi_derivation``, ``check_generalized_derivation``
and ``check_adjoint_expansion`` all run ``derivations._leibniz_cells``; the
report oracles in ``derivation_oracle`` keep one loop per checker with the
sign written out.  On seeded random multiplicative algebras (dimension 1-3,
arity 2-3, random parities, graded rational tensors, a random even twist),
every report must be equal at caps 0, 2 and unlimited.  A third of the
algebras are Grassmann envelopes carrying d/dtheta, an odd power-0
derivation whose Leibniz sign is the Koszul sign itself; the other passing
candidates are solved derivations, and the random maps mostly fail.
"""

import dataclasses
import random

from homnambu.catalog import catalog_build
from homnambu.core import Element, GradedLinearMap, NaryBracket, multiplicative_algebra
from homnambu.derivations import (
    DerivationCandidate,
    GeneralizedTuple,
    QuasiPair,
    check_derivation,
    check_generalized_derivation,
    check_quasi_derivation,
    solve_derivation_space,
)
from homnambu.iterated import check_adjoint_expansion
import derivation_oracle
import random_inputs
from test_derivation_solver import grassmann_envelope

CAPS = (0, 2, 10**6)


def assert_equal_at_every_cap(checker, full):
    for cap in CAPS:
        assert checker(cap) == dataclasses.replace(full, counterexamples=full.counterexamples[:cap])


def random_algebra(rng, arity):
    """A multiplicative algebra and, for Grassmann envelopes, d/dtheta."""
    envelope = rng.random() < 1 / 3
    space = random_inputs.space(rng, 2 if envelope else 3)
    entries = random_inputs.graded_tensor(rng, space, arity)
    alg = multiplicative_algebra(space, NaryBracket(arity, entries), random_inputs.graded_map(rng, space))
    if not envelope:
        return alg, None
    big = grassmann_envelope(alg)
    d_theta = GradedLinearMap(big.space, 1, {"t" + l: Element({l: 1}) for l in space.labels})
    return big, d_theta


def candidate(rng, alg, special, k):
    """A derivation when one is at hand (d/dtheta or a solved one), else a random map."""
    if special is not None and rng.random() < 0.7:
        return special
    parity = rng.randint(0, 1)
    if rng.random() < 0.5:
        solved = solve_derivation_space(alg, k, parity)
        if solved:
            return rng.choice(solved)
    return random_inputs.graded_map(rng, alg.space, parity)


def test_derivation_checkers_match_oracles():
    rng = random.Random(11)
    cases, failing = 45, 0
    for _ in range(cases):
        alg, special = random_algebra(rng, rng.choice((2, 2, 3)))
        k = rng.randint(0, 2)
        d = candidate(rng, alg, special, k)
        n = alg.arity

        cand = DerivationCandidate(d, k)
        full = derivation_oracle.derivation_report(cand, alg, 10**6)
        assert_equal_at_every_cap(lambda cap: check_derivation(cand, alg, cap), full)
        failing += not full.passed

        other = d if rng.random() < 0.5 else random_inputs.graded_map(rng, alg.space, d.parity)
        pair = QuasiPair(d, other, k)
        full = derivation_oracle.quasi_derivation_report(pair, alg, 10**6)
        assert_equal_at_every_cap(lambda cap: check_quasi_derivation(pair, alg, cap), full)
        failing += not full.passed

        maps = tuple(d if rng.random() < 0.6 else random_inputs.graded_map(rng, alg.space, d.parity) for _ in range(n + 1))
        tup = GeneralizedTuple(maps, k)
        full = derivation_oracle.generalized_derivation_report(tup, alg, 10**6)
        assert_equal_at_every_cap(lambda cap: check_generalized_derivation(tup, alg, cap), full)
        failing += not full.passed
    checks = 3 * cases
    assert checks / 3 <= failing <= checks * 5 / 6


def test_adjoint_expansion_matches_oracle():
    rng = random.Random(13)
    algebras = [catalog_build(name).algebra for name in ("g3_1_1", "g5_1_1", "L1", "L2")]
    algebras += [random_algebra(rng, 2)[0] for _ in range(12)]
    failing = 0
    for alg in algebras:
        n = 3 if alg.space.dim > 2 else rng.choice((3, 4))
        full = derivation_oracle.adjoint_expansion_report(alg, n, 10**6)
        assert_equal_at_every_cap(lambda cap: check_adjoint_expansion(alg, n, cap=cap), full)
        failing += not full.passed
    assert len(algebras) / 3 <= failing < len(algebras)
