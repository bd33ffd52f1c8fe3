import random
from fractions import Fraction as F

import pytest
import sympy

from homnambu import linalg
from homnambu.core import GradedLinearMap, SuperSpace


def random_matrix(rng, rows, cols):
    values = [-3, -1, 0, 0, 1, 2, F(1, 2), F(-2, 3)]
    return [[F(rng.choice(values)) for _ in range(cols)] for _ in range(rows)]


def sympy_nullspace(rows, ncols):
    m = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    return [[F(int(x.p), int(x.q)) for x in vec] for vec in m.nullspace()]


def in_span(basis, vector) -> bool:
    """Exact membership of ``vector`` in the rational span of ``basis``."""
    if all(v == 0 for v in vector):
        return True
    if not basis:
        return False
    stacked = [list(b) for b in basis]
    return linalg.rank(stacked) == linalg.rank(stacked + [list(vector)])


def same_span(basis_a, basis_b, ncols):
    if len(basis_a) != len(basis_b):
        return False
    return all(in_span(basis_b, v) for v in basis_a) and all(
        in_span(basis_a, v) for v in basis_b
    )


@pytest.mark.parametrize("seed", range(25))
def test_nullspace_matches_sympy(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    m = random_matrix(rng, nrows, ncols)
    ours = linalg.nullspace(m, ncols)
    theirs = sympy_nullspace(m, ncols)
    assert same_span(ours, theirs, ncols)
    for vec in ours:
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def sympy_rref(rows):
    reduced, pivots = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows]).rref()
    matrix = [[F(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(reduced.rows)]
    return matrix, list(pivots)


def tall_redundant_matrix(rng, ncols):
    """More rows than columns: duplicates, scaled rows, sums of rows and zero
    rows around a few random ones, with integral entries as plain ints."""
    base = random_matrix(rng, rng.randint(1, ncols), ncols)
    rows = []
    for _ in range(rng.randint(ncols + 1, 3 * ncols + 4)):
        kind = rng.choice(("zero", "duplicate", "scaled", "sum"))
        a, b = rng.choice(base), rng.choice(base)
        if kind == "zero":
            row = [F(0)] * ncols
        elif kind == "duplicate":
            row = list(a)
        elif kind == "scaled":
            factor = rng.choice((-1, 2, F(-3, 4), F(5, 2)))
            row = [factor * v for v in a]
        else:
            row = [x + y for x, y in zip(a, b)]
        rows.append([int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in row])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_tall_redundant_matches_sympy(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    m = tall_redundant_matrix(rng, ncols)
    assert linalg.rref(m) == sympy_rref(m)
    assert linalg.rank(m) == len(sympy_rref(m)[1])
    assert linalg.nullspace(m, ncols) == sympy_nullspace(m, ncols)


def test_nullspace_empty_system():
    basis = linalg.nullspace([], ncols=3)
    assert len(basis) == 3


def test_rank_and_rref():
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.rank(m) == 1
    reduced, pivots = linalg.rref(m)
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]


def test_in_span():
    basis = [[F(1), F(0)], [F(0), F(1)]]
    assert in_span(basis, [F(3), F(-2)])
    assert not in_span([[F(1), F(1)]], [F(1), F(0)])
    assert in_span([], [F(0), F(0)])


class TestInvertMap:
    def setup_method(self):
        self.space = SuperSpace.from_pairs([("e0", 0), ("e1", 1)])

    def test_inverse(self):
        m = GradedLinearMap.from_matrix(self.space, [[F(1, 2), 0], [0, 3]])
        inv = linalg.invert_map(m)
        assert inv.matrix() == [[F(2), F(0)], [F(0), F(1, 3)]]

    def test_singular(self):
        m = GradedLinearMap.from_matrix(self.space, [[1, 0], [0, 0]])
        assert not linalg.is_invertible(m)
        with pytest.raises(ValueError):
            linalg.invert_map(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_inverse_roundtrip(self, seed):
        rng = random.Random(seed)
        space = SuperSpace.from_pairs([("a", 0), ("b", 0), ("c", 1)])
        while True:
            rows = [
                [F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), 0],
                [F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), 0],
                [0, 0, F(rng.randint(-3, 3))],
            ]
            if linalg.rank(rows) == 3:
                break
        m = GradedLinearMap.from_matrix(space, rows)
        inv = linalg.invert_map(m)
        from homnambu.core import map_compose, GradedLinearMap as GLM

        assert map_compose(m, inv) == GLM.identity(space)
        assert map_compose(inv, m) == GLM.identity(space)
