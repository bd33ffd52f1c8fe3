"""Differential tests: the shared Leibniz kernel against the old per-checker loops.

``check_derivation``, ``check_quasi_derivation``, ``check_generalized_derivation``,
``check_adjoint_expansion`` and the phi-annihilation hypothesis of
``derivation_transfer`` all run ``axioms._leibniz_kernel``; the report
oracles in ``derivation_oracle`` keep one loop per checker with the sign
written out.  On seeded random multiplicative algebras (dimension 1-3,
arity 2-3, random parities, graded rational tensors, a random even twist),
every report must be equal at caps 0, 2 and unlimited.  A third of the
derivation and generalized cases replace a^k by a random even spectator.
A third of the algebras are Grassmann envelopes carrying d/dtheta, an odd
power-0 derivation whose Leibniz sign is the Koszul sign itself; the other
passing candidates are solved derivations, and the random maps mostly fail.
"""

import random

from homnambu.catalog import catalog_build
from homnambu.cochains import SuperCochain, derivation_transfer
from homnambu.core import (
    Element,
    GradedLinearMap,
    NaryBracket,
    OrbitConflict,
    SuperSpace,
    multiplicative_algebra,
)
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
        assert checker(cap) == random_inputs.capped(full, cap)


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
    cases, failing, spectated = 45, 0, 0
    for _ in range(cases):
        alg, special = random_algebra(rng, rng.choice((2, 2, 3)))
        k = rng.randint(0, 2)
        d = candidate(rng, alg, special, k)
        n = alg.arity

        # a third of the cases override a^k with a random even spectator
        spectator = random_inputs.graded_map(rng, alg.space) if rng.random() < 1 / 3 else None
        spectated += spectator is not None

        cand = DerivationCandidate(d, k)
        full = derivation_oracle.derivation_report(cand, alg, 10**6, spectator)
        assert_equal_at_every_cap(lambda cap: check_derivation(cand, alg, cap, spectator), full)
        failing += not full.passed

        other = d if rng.random() < 0.5 else random_inputs.graded_map(rng, alg.space, d.parity)
        pair = QuasiPair(d, other, k)
        full = derivation_oracle.quasi_derivation_report(pair, alg, 10**6)
        assert_equal_at_every_cap(lambda cap: check_quasi_derivation(pair, alg, cap), full)
        failing += not full.passed

        maps = tuple(d if rng.random() < 0.6 else random_inputs.graded_map(rng, alg.space, d.parity) for _ in range(n + 1))
        tup = GeneralizedTuple(maps, k)
        full = derivation_oracle.generalized_derivation_report(tup, alg, 10**6, spectator)
        assert_equal_at_every_cap(
            lambda cap: check_generalized_derivation(tup, alg, cap, spectator), full
        )
        failing += not full.passed
    checks = 3 * cases
    assert checks / 3 <= failing <= checks * 5 / 6
    assert cases / 5 <= spectated <= cases / 2


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


def test_adjoint_expansion_instance_matches_oracle():
    """The explicit x/ys instance, on random cells and on cells the full check fails."""
    rng = random.Random(17)
    algebras = [catalog_build(name).algebra for name in ("g3_1_1", "L1")]
    algebras += [random_algebra(rng, 2)[0] for _ in range(8)]
    cases = failing = 0
    for alg in algebras:
        n = rng.choice((3, 4)) if alg.space.dim <= 2 else 3
        failed = [c.args for c in derivation_oracle.adjoint_expansion_report(alg, n, 10**6).counterexamples]
        for _ in range(4):
            if failed and rng.random() < 0.5:
                x, *ys = rng.choice(failed)
            else:
                x, *ys = (rng.choice(alg.space.labels) for _ in range(n + 1))
            full = derivation_oracle.adjoint_expansion_report(alg, n, 10**6, x=x, ys=ys)
            assert_equal_at_every_cap(
                lambda cap: check_adjoint_expansion(alg, n, x=x, ys=tuple(ys), cap=cap), full
            )
            cases += 1
            failing += not full.passed
    assert cases / 5 <= failing <= cases * 3 / 4


def random_cochain(rng, space, degree, labels):
    """An even super-skew cochain: up to three orbits over ``labels`` with random values.

    Twenty draws look for the orbits, so it is zero mostly where no orbit of
    the degree can carry a value.
    """
    values, orbits = {}, rng.randint(1, 3)
    for _ in range(20):
        args = tuple(rng.choice(labels) for _ in range(degree))
        if sum(space.parity(a) for a in args) % 2 == 0 and args not in values:
            try:
                values.update(SuperCochain(space, degree, {args: rng.choice(random_inputs.VALUES)}).values)
                orbits -= 1
            except OrbitConflict:  # a repeated even label forces zero
                pass
        if not orbits:
            break
    return SuperCochain(space, degree, values, complete=False)


def test_phi_annihilation_matches_oracle():
    """The hypothesis of ``derivation_transfer`` against the brute-force slot sum.

    Over an abelian algebra whose twist is a multiple of the identity, every
    graded map is a derivation, so random maps of either parity reach the
    hypothesis.  The cochain never sees the extra label z; a third of the
    maps take values in z only and so annihilate it, the rest mostly fail.
    Odd maps on cochains with an odd first slot reach the Koszul sign.
    """
    rng = random.Random(19)
    cases, failing, signed = 40, 0, 0
    for _ in range(cases):
        phi_labels = ("e0", "e1", "e2")[: rng.randint(2, 3)]
        space = SuperSpace(phi_labels + ("z",), tuple(rng.randint(0, 1) for _ in range(len(phi_labels) + 1)))
        twist = GradedLinearMap(space, 0, {l: Element({l: 2}) for l in space.labels})
        alg = multiplicative_algebra(space, NaryBracket(2, {}), twist)
        degree = rng.randint(1, 3)
        phi = random_cochain(rng, space, degree, phi_labels)
        parity = rng.randint(0, 1)
        if rng.random() < 1 / 3:
            cols = {
                l: Element({"z": rng.choice(random_inputs.VALUES)})
                for l in space.labels
                if (space.parity(l) + parity) % 2 == space.parity("z")
            }
            d = GradedLinearMap(space, parity, cols)
        else:
            d = random_inputs.graded_map(rng, space, parity)
        cand = DerivationCandidate(d, rng.randint(0, 2))
        full = derivation_oracle.phi_annihilation_report(d, phi, 10**6)
        assert_equal_at_every_cap(
            lambda cap: derivation_transfer(cand, phi, alg, degree + 2, cap).hypothesis, full
        )
        failing += not full.passed
        signed += parity and any(space.parity(args[0]) for args in phi.values if len(args) > 1)
    assert cases / 4 <= failing <= cases * 3 / 4
    assert signed >= cases / 10
