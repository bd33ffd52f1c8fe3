"""Seeded random inputs shared by the differential tests of the identity families.

It also holds :func:`capped`, the capped form of an oracle's report that
those tests compare the fast checkers against at each cap.

Everything is drawn from a ``random.Random`` the caller seeds, so a failing
case reproduces from the seed alone.  Scalars come from a small set of
rationals with denominators; tensors are graded (every value has the parity
of its arguments) and sparse; maps are homogeneous of a requested parity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

from homnambu.axioms import CheckReport
from homnambu.core import Element, GradedLinearMap, SuperSpace

VALUES = (F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3))


def capped(report: CheckReport, cap: int) -> CheckReport:
    """``report`` keeping only its first ``cap`` counterexamples; every other field as is."""
    return CheckReport(
        report.identity,
        report.passed,
        report.counterexamples[:cap],
        report.failures,
        report.tuples_checked,
    )


def space(rng, max_dim: int = 3) -> SuperSpace:
    labels = tuple(f"e{i}" for i in range(rng.randint(1, max_dim)))
    return SuperSpace(labels, tuple(rng.randint(0, 1) for _ in labels))


def graded_tensor(rng, space, arity, inputs=None, outputs=None, density=0.4) -> dict:
    """Sparse graded entries over ``inputs``^arity with values in ``outputs``."""
    inputs = space.labels if inputs is None else inputs
    outputs = space.labels if outputs is None else outputs
    entries = {}
    for args in itertools.product(inputs, repeat=arity):
        want = sum(space.parity(a) for a in args) % 2
        outs = [l for l in outputs if space.parity(l) == want]
        if outs and rng.random() < density:
            entries[args] = Element({l: rng.choice(VALUES) for l in rng.sample(outs, 1)})
    return entries


def graded_map(rng, space, parity: int = 0) -> GradedLinearMap:
    """A parity-``parity`` map: one or two terms per column, sometimes a zero column."""
    cols = {}
    for l in space.labels:
        targets = [m for m in space.labels if (space.parity(m) + space.parity(l)) % 2 == parity]
        if not targets or rng.random() < 0.15:
            continue
        if parity == 0 and rng.random() < 0.7:
            picked = [l] + rng.sample(targets, min(len(targets), rng.randint(0, 1)))
        else:
            picked = rng.sample(targets, min(len(targets), rng.randint(1, 2)))
        cols[l] = Element({m: rng.choice(VALUES) for m in picked})
    return GradedLinearMap(space, parity, cols)
