"""Multiplicativity on the algebra's Nambu kernel, against the tuple-loop oracle.

``check_multiplicative`` is one ``_leibniz_sweep`` instance on the kernel the
Nambu check builds (``HomSuperAlgebra._nambu_kernel``): its slot-1 table is
T∘(., alpha, .., alpha), so O = alpha (the kernel's out slot carries the
tau^(n-1)), f_1 = alpha and f_i = 0 leave alpha∘T - T∘alpha^(⊗n).  Its reports must equal the oracle's at
caps 0, 2 and unlimited on the nests of every multiplicative catalog entry, on
transported nests (dense twists with denominators) and on twists that are not
morphisms.  The kernel is a derived view: built once per algebra, shared by
the Nambu and multiplicativity checks, and outside equality and hashing.
"""

import pickle
import random
from unittest import mock

import pytest

from homnambu import axioms
from homnambu.axioms import check_multiplicative, check_nambu_identity
from homnambu.catalog import catalog_build, catalog_list
from homnambu.core import HomSuperAlgebra
from homnambu.iterated import iterated_bracket
import intertwining_oracle as oracle
import random_inputs

CAPS = (0, 2, 10**6)
MULTIPLICATIVE = [e.name for e in catalog_list() if e.build().algebra.multiplicative_flag]


def assert_matches_oracle(alg):
    full = oracle.check_multiplicative(alg, 10**6)
    for cap in CAPS:
        assert check_multiplicative(alg, cap) == random_inputs.capped(full, cap)
    return full


def with_twist(alg, twist):
    return HomSuperAlgebra(alg.space, alg.bracket, (twist,) * (alg.arity - 1))


@pytest.mark.parametrize("name", MULTIPLICATIVE)
def test_catalog_nests_match_oracle(name):
    alg = catalog_build(name).algebra
    for n in (3, 4, 5):
        assert assert_matches_oracle(iterated_bracket(alg, n)).passed


@pytest.mark.parametrize("seed, n", [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4)])  # the oracle takes 10 s at seed 1, n = 5
def test_transported_nests_match_oracle(seed, n):
    """P a P^-1 is dense and has denominators, so the tau^(n-1) of the kernel's out slot matters."""
    bundle = catalog_build("osp12")
    P = random_inputs.even_invertible(random.Random(seed), bundle.algebra.space)
    transported = random_inputs.transport(bundle, P)
    assert transported.twists[0].integer_columns[0] > 1
    assert assert_matches_oracle(iterated_bracket(transported, n)).passed


def test_twists_that_are_not_morphisms_match_oracle():
    """Each nest's bracket under other twists, checked on one bracket object one algebra after another."""
    rng = random.Random(25)
    failing = 0
    for name in MULTIPLICATIVE:
        base = catalog_build(name).algebra
        for n in (2, 3, 4):
            nest = iterated_bracket(base, n)
            for _ in range(3):
                twist = random_inputs.graded_map(rng, base.space)
                failing += not assert_matches_oracle(with_twist(nest, twist)).passed
    assert failing >= 10


def test_nambu_then_multiplicative_build_one_kernel():
    built = []
    kernel = axioms._leibniz_kernel

    def counting_kernel(*args):
        built.append(args[0])
        return kernel(*args)

    nest = iterated_bracket(catalog_build("osp12").algebra, 4)
    twin = HomSuperAlgebra(nest.space, nest.bracket, nest.twists, nest.multiplicative_flag)
    with mock.patch.object(axioms, "_leibniz_kernel", counting_kernel):
        assert check_nambu_identity(nest).passed and check_multiplicative(nest).passed
        assert len(built) == 1
        assert check_multiplicative(twin).passed and check_nambu_identity(twin).passed
        assert len(built) == 2  # an equal algebra builds its own
    assert twin == nest and hash(twin) == hash(nest)
    assert "_nambu_kernel" in vars(nest) and repr(nest) == repr(twin)


def test_kernel_follows_the_twists_not_the_bracket():
    """Two algebras on one bracket object: each check reads its own algebra's kernel."""
    nest = iterated_bracket(catalog_build("g3_1_1").algebra, 3)
    scaled = with_twist(nest, nest.twists[0].scale(3))
    for alg in (nest, scaled, nest, scaled):
        assert_matches_oracle(alg)
        assert check_nambu_identity(alg) == check_nambu_identity(HomSuperAlgebra(alg.space, alg.bracket, alg.twists))
    assert check_multiplicative(nest).passed and not check_multiplicative(scaled).passed


def test_algebra_pickles_after_its_kernel_is_built():
    """The kernel is a closure; pickling keeps the fields and the copy builds its own kernel on first read."""
    nest = iterated_bracket(catalog_build("osp12").algebra, 3)
    report = check_nambu_identity(nest)
    copy = pickle.loads(pickle.dumps(nest))
    assert copy == nest and "_nambu_kernel" not in vars(copy)
    assert check_nambu_identity(copy) == report and check_multiplicative(copy) == check_multiplicative(nest)
