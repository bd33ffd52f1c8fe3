"""Differential tests: the table-driven pre-Lie checkers against the old loops.

``prelie_oracle`` keeps the hand-written loops, one parity expression per
sign; :mod:`homnambu.prelie` evaluates the same identities from signed-term
tables and ``koszul_sign``.  Seeded random ternary products (dimension 1-3,
random parities, graded rational entries, first-pair completed or raw, with
a random even twist) must give equal reports at every cap and an equal
cyclic supercommutator.  A third of the products are "central": every value
lands in a label that no entry takes as an input, so every nested term
vanishes and the five-argument identities pass; the rest mostly fail.
"""

import random

import pytest

from homnambu.core import NaryBracket, OrbitConflict
from homnambu.prelie import (
    TriProduct,
    check_3_pre_lie,
    check_derived_identities,
)
import prelie_oracle
import random_inputs

CAPS = (0, 3, 10**6)


def random_product(rng) -> tuple[TriProduct, bool]:
    space = random_inputs.space(rng)
    labels = space.labels
    central = len(labels) > 1 and rng.random() < 1 / 3
    if central:
        entries = random_inputs.graded_tensor(rng, space, 3, labels[:-1], labels[-1:])
    else:
        entries = random_inputs.graded_tensor(rng, space, 3)
    twist = random_inputs.graded_map(rng, space)
    if rng.random() < 0.5:
        try:
            return TriProduct.from_generators(space, entries, twist), central
        except OrbitConflict:
            pass
    return TriProduct(space, NaryBracket(3, entries), twist), central


CHECKERS = {
    "axioms": (check_3_pre_lie, prelie_oracle.check_3_pre_lie),
    "derived": (check_derived_identities, prelie_oracle.check_derived_identities),
}


@pytest.mark.parametrize("which", sorted(CHECKERS))
def test_tables_match_hand_written_loops(which):
    """Merged reports cap each part separately, so the oracle runs per cap."""
    checker, oracle = CHECKERS[which]
    rng = random.Random(5)
    cases, failing, central_count = 24, 0, 0
    for _ in range(cases):
        t, central = random_product(rng)
        assert t.cyclic == prelie_oracle._cyclic_tensor(t)
        for cap in CAPS:
            expected = oracle(t, cap)
            assert checker(t, cap) == expected
        if central:
            central_count += 1
            assert which == "axioms" or expected.passed
        failing += not expected.passed
    assert failing >= cases / 3
    assert central_count >= cases / 5
