"""The Leibniz kernel's contract: its input form, its cell mode, its denominators and its garbage.

``axioms._leibniz_kernel`` takes the tensor and the spectators as integer
tables and keeps their denominators: every term of a scatter is a numerator
over the kernel's ``scale`` times the maps' own denominator, and the out map
runs as one more slot (slot 0) of the one scatter loop.  A scatter takes
each tag's (O, [f_1, .., f_n]) as integer column tables and lays them out
itself.

* **Tags.**  One scatter of k tagged tables must equal the k one-tag
  scatters, tag t's keys moved by t d^n w, in both the accumulator and
  ``lhs``, for the full scatter and at every cell; and one map object
  passed for several slots (the out slot included) must scatter as equal
  copies of it: on random tensors of arity 1 to 3 with random and identity
  spectators, for even and odd f.
* **Cell mode.**  ``scatter(.., cell=y)`` must give exactly the full
  scatter's entries at y, of every tag, in both the accumulator and ``lhs``:
  on random graded tensors with random (failing) maps, on the Nambu kernel
  of a passing nest, on the 1-ary twist tensor and on a one-output cochain
  table with identity spectators, for even and odd f and several tags.
* **Denominators.**  A tensor scale and spectator scales that are neither 1
  nor equal (per-slot twists with distinct denominators, and a nest
  transported by a dense P) must leave the Nambu, multiplicativity and
  derivation reports equal to the brute-force oracles at caps 0, 2 and
  unlimited.
* **No cyclic garbage.**  Building a Nambu kernel and a nested bracket, both
  of which run the cached pick expansion, must leave nothing for the cyclic
  collector: every pick list is freed when its pass ends.
"""

import gc
import random
from fractions import Fraction

import pytest

from homnambu.axioms import _leibniz_kernel, _unary, check_multiplicative, check_nambu_identity
from homnambu.catalog import catalog_build
from homnambu.cochains import SuperCochain
from homnambu.core import GradedLinearMap, HomSuperAlgebra, NaryBracket, integer_table, multiplicative_algebra
from homnambu.derivations import (
    DerivationCandidate, GeneralizedTuple, QuasiPair, check_derivation, check_generalized_derivation,
    check_quasi_derivation, solve_derivation_space,
)
from homnambu.iterated import iterated_bracket
import derivation_oracle
import intertwining_oracle
import random_inputs
from nambu_oracle import nambu_oracle
from test_kernel_index import assert_index_is_each_slot_table

CAPS = (0, 2, 10**6)
OSP12 = catalog_build("osp12")


def scatter_maps(tagged):
    """The scatter's tagged tables from (tag, O, [f_1, .., f_n]) integer columns: tag t's (O, [f_1, .., f_n]) at
    position t, empty maps at the tags none names."""
    tables = [({}, [{}] * len(tagged[0][2])) for _ in range(1 + max(tag for tag, _, _ in tagged))]
    for tag, o, fs in tagged:
        tables[tag] = (o, fs)
    return tables


def assert_cells_match_the_full_scatter(kernel, tagged, odd):
    """For every cell y, the cell-mode acc and lhs are the full ones restricted to y's keys, every tag included."""
    space, n, width = kernel.space, len(tagged[0][1]), len(kernel.outputs)
    block = space.dim ** n * width
    acc, lhs = kernel(tagged, odd)
    at = {l: k for k, l in enumerate(space.labels)}
    seen = 0
    for y in space.tuples(n):
        start = sum(at[l] * space.dim ** (n - 1 - j) for j, l in enumerate(y)) * width
        restrict = lambda table: {k: v for k, v in table.items() if start <= k % block < start + width}
        cell_acc, cell_lhs = kernel(tagged, odd, cell=y)
        assert cell_acc == restrict(acc)
        assert cell_lhs == restrict(lhs)
        seen += len(cell_acc)
    assert seen == len(acc)  # every key of the full scatter is some cell's
    return acc


def random_kernel_case(rng):
    """A random graded tensor with random spectators, as (kernel, integer columns of random maps)."""
    space = random_inputs.space(rng, 3)
    n = rng.choice((1, 2, 3))
    entries = random_inputs.graded_tensor(rng, space, n, density=0.6)
    tensor = integer_table({args: value.coeffs for args, value in entries.items()})
    spectator = lambda: None if rng.random() < 0.25 else random_inputs.graded_map(rng, space).integer_columns
    kernel = _leibniz_kernel(tensor, space.labels, space, [spectator() for _ in range(n)], [spectator() for _ in range(n)])
    return kernel, space, n


def random_tables(rng, space, odd):
    """The integer columns of a random map of parity ``odd``."""
    return random_inputs.graded_map(rng, space, odd).integer_columns[1]


def test_cell_mode_is_the_full_scatter_restricted_on_random_tensors():
    rng = random.Random(31)
    nonzero = 0
    for _ in range(40):
        kernel, space, n = random_kernel_case(rng)
        odd = rng.randint(0, 1)
        tagged = [(tag, random_tables(rng, space, odd), [random_tables(rng, space, odd) for _ in range(n)])
                  for tag in range(rng.randint(1, 3))]
        acc = assert_cells_match_the_full_scatter(kernel, scatter_maps(tagged), odd)
        nonzero += any(acc.values())
    assert nonzero >= 20


def test_tagged_scatter_is_the_one_tag_scatters_at_their_offsets():
    """Tag t's keys are its one-tag scatter's, moved by t d^n w, in acc and lhs, in full and at every cell."""
    rng = random.Random(61)
    nonzero = 0
    for _ in range(30):
        kernel, space, n = random_kernel_case(rng)
        odd = rng.randint(0, 1)
        tagged = [(random_tables(rng, space, odd), [random_tables(rng, space, odd) for _ in range(n)])
                  for _ in range(rng.randint(2, 4))]
        block = space.dim ** n * len(kernel.outputs)
        for cell in (None, *space.tuples(n)):
            acc, lhs = kernel(tagged, odd, cell=cell)
            singles = [kernel([one], odd, cell=cell) for one in tagged]
            for side, combined in enumerate((acc, lhs)):
                assert combined == {k + t * block: v for t, sides in enumerate(singles) for k, v in sides[side].items()}
        nonzero += any(kernel(tagged, odd)[0].values())
    assert nonzero >= 10


def test_a_map_passed_for_several_slots_scatters_as_its_copies():
    """Each tag draws its O and f_i from two map objects, so one object fills several slots and sometimes the
    out slot too, where it is laid out by its columns rather than by its rows."""
    rng = random.Random(67)
    copy = lambda m: {c: dict(image) for c, image in m.items()}
    nonzero = 0
    for _ in range(30):
        kernel, space, n = random_kernel_case(rng)
        odd = rng.randint(0, 1)
        tagged = []
        for _ in range(rng.randint(1, 3)):
            pool = [random_tables(rng, space, odd) for _ in range(2)]
            tagged.append((rng.choice(pool), [rng.choice(pool) for _ in range(n)]))
        copies = [(copy(o), [copy(f) for f in fs]) for o, fs in tagged]
        for cell in (None, *space.tuples(n)):
            assert kernel(tagged, odd, cell=cell) == kernel(copies, odd, cell=cell)
        nonzero += any(kernel(tagged, odd)[0].values())
    assert nonzero >= 10


def test_cell_mode_on_a_passing_nambu_instance():
    """ad_x on nested osp12 at arity 3: the Nambu kernel's scatter vanishes, and so does every cell's."""
    nest = iterated_bracket(OSP12.algebra, 3)
    kernel = nest._nambu_kernel
    _, terms = nest.bracket.table
    for xs in (("X", "Y"), ("H", "F"), ("F", "G")):
        rows = {args[-1]: value for args, value in terms.items() if args[:-1] == xs}
        ad = kernel.last_slot()[xs]  # ad_{ax} at the kernel's scale
        lifted = {c: {r: v * kernel.scale // nest.bracket.table[0] for r, v in image.items()} for c, image in rows.items()}
        odd = sum(map(nest.space.parity, xs)) % 2
        acc = assert_cells_match_the_full_scatter(kernel, [(ad, [lifted] * 3)], odd)
        assert acc and not any(acc.values())


@pytest.mark.parametrize("odd", (0, 1))
def test_cell_mode_on_the_twist_tensor_and_a_cochain(odd):
    rng = random.Random(37 + odd)
    alpha = random_inputs.transport(OSP12, random_inputs.even_invertible(rng, OSP12.algebra.space)).twists[0]
    space = alpha.space
    twist = _leibniz_kernel(_unary(alpha), space.labels, space, [], [None])
    maps = lambda: random_inputs.graded_map(rng, space, odd).integer_columns[1]
    # alpha commutes with itself: a passing commutation instance under tag 0, random maps under tags 1 and 2
    tagged = [(0, alpha.integer_columns[1], [alpha.integer_columns[1]])] if not odd else []
    tagged += [(tag, maps(), [maps()]) for tag in (1, 2)]
    assert_cells_match_the_full_scatter(twist, scatter_maps(tagged), odd)

    phi = SuperCochain(space, 3, {("X", "Y", "H"): 1, ("X", "F", "G"): 2, ("H", "F", "G"): -3, ("F", "F", "Y"): 4})
    cochain = _leibniz_kernel(phi.table, (0,), space, [None] * 3, [None] * 3)
    tagged = [(tag, {}, [maps()] * 3) for tag in (0, 1)]
    assert any(assert_cells_match_the_full_scatter(cochain, scatter_maps(tagged), odd).values())


def scaled(m: GradedLinearMap, a) -> GradedLinearMap:
    return m.scale(Fraction(a))


def test_identity_spectators_beside_scaled_ones_keep_the_index():
    """None beside spectators over 1/5 and 2/7 is the identity at the common denominator: every slot's index,
    over the kernel's scale, is T_i by the Element oracle."""
    rng = random.Random(43)
    for _ in range(12):
        space = random_inputs.space(rng, 3)
        n = rng.choice((2, 3, 4))
        entries = random_inputs.graded_tensor(rng, space, n, density=0.6)
        tensor = integer_table({args: value.scale(Fraction(1, 3)).coeffs for args, value in entries.items()})
        maps = [None, scaled(random_inputs.graded_map(rng, space), Fraction(1, 5)).integer_columns,
                scaled(random_inputs.graded_map(rng, space), Fraction(2, 7)).integer_columns]
        before, after = ([rng.choice(maps) for _ in range(n)] for _ in range(2))
        assert_index_is_each_slot_table(tensor, space.labels, space, before, after)


def per_slot_algebras(rng):
    """Random arity-3 algebras whose tensor and two twists have three distinct denominators, none of them 1."""
    while True:
        space = random_inputs.space(rng, 3)
        entries = random_inputs.graded_tensor(rng, space, 3, density=0.5)
        twists = (scaled(random_inputs.graded_map(rng, space), Fraction(1, 5)),
                  scaled(random_inputs.graded_map(rng, space), Fraction(2, 7)))
        alg = HomSuperAlgebra(space, NaryBracket(3, {a: v.scale(Fraction(1, 3)) for a, v in entries.items()}), twists)
        scales = [alg.bracket.table[0]] + [t.integer_columns[0] for t in twists]
        if all(s > 1 for s in scales) and len(set(scales)) == 3:
            yield alg


def test_per_slot_denominators_keep_the_nambu_report():
    rng = random.Random(47)
    cases = per_slot_algebras(rng)
    failing = 0
    for _ in range(12):
        alg = next(cases)
        full = nambu_oracle(alg, cap=10**6)
        for cap in CAPS:
            assert check_nambu_identity(alg, cap) == random_inputs.capped(full, cap)
        failing += not full.passed
    assert failing >= 6


@pytest.fixture(scope="module")
def transported_nest():
    """osp12 moved by a dense even P, nested at arity 3: the tensor and the shared twist both carry denominators."""
    P = random_inputs.even_invertible(random.Random(5), OSP12.algebra.space)
    nest = iterated_bracket(random_inputs.transport(OSP12, P), 3)
    tau = nest.twists[0].integer_columns[0]
    assert nest.bracket.table[0] > 1 and tau > 1 and tau != nest.bracket.table[0]
    return nest


def test_transported_nest_keeps_the_nambu_and_multiplicativity_reports(transported_nest):
    nambu, multiplicative = nambu_oracle(transported_nest, cap=10**6), intertwining_oracle.check_multiplicative(
        transported_nest, 10**6
    )
    assert nambu.passed and multiplicative.passed
    for cap in CAPS:
        assert check_nambu_identity(transported_nest, cap) == random_inputs.capped(nambu, cap)
        assert check_multiplicative(transported_nest, cap) == random_inputs.capped(multiplicative, cap)
    # three times the twist still satisfies the (homogeneous) Nambu identity, but is no longer a morphism
    tripled = HomSuperAlgebra(transported_nest.space, transported_nest.bracket, (scaled(transported_nest.twist, 3),) * 2)
    full = intertwining_oracle.check_multiplicative(tripled, 10**6)
    assert not full.passed
    for cap in CAPS:
        assert check_multiplicative(tripled, cap) == random_inputs.capped(full, cap)


def assert_derivation_reports(alg, d, k, spectator, others):
    cand = DerivationCandidate(d, k)
    full = derivation_oracle.derivation_report(cand, alg, 10**6, spectator)
    for cap in CAPS:
        assert check_derivation(cand, alg, cap, spectator) == random_inputs.capped(full, cap)
    pair = QuasiPair(d, others[0], k)
    quasi = derivation_oracle.quasi_derivation_report(pair, alg, 10**6)
    tup = GeneralizedTuple((d,) + tuple(others[1:]), k)
    general = derivation_oracle.generalized_derivation_report(tup, alg, 10**6, spectator)
    for cap in CAPS:
        assert check_quasi_derivation(pair, alg, cap) == random_inputs.capped(quasi, cap)
        assert check_generalized_derivation(tup, alg, cap, spectator) == random_inputs.capped(general, cap)
    return full.passed


def test_distinct_denominators_keep_the_derivation_reports():
    """Tensor over 1/3, twist over 1/5, spectator over 2/7 and maps over 1/2: four distinct scales in one sweep."""
    rng = random.Random(53)
    passing = failing = 0
    for _ in range(12):
        space = random_inputs.space(rng, 3)
        entries = {a: v.scale(Fraction(1, 3)) for a, v in random_inputs.graded_tensor(rng, space, 2).items()}
        twist = scaled(random_inputs.graded_map(rng, space), Fraction(1, 5))
        alg = multiplicative_algebra(space, NaryBracket(2, entries), twist)
        k, parity = rng.randint(0, 2), rng.randint(0, 1)
        solved = solve_derivation_space(alg, k, parity)
        d = scaled(random_inputs.graded_map(rng, space, parity), Fraction(1, 2))
        if solved and rng.random() < 0.5:
            d = rng.choice(solved)
        spectator = scaled(random_inputs.graded_map(rng, space), Fraction(2, 7)) if rng.random() < 0.5 else None
        others = [scaled(random_inputs.graded_map(rng, space, d.parity), Fraction(1, 2)) for _ in range(3)]
        if assert_derivation_reports(alg, d, k, spectator, others):
            passing += 1
        else:
            failing += 1
    assert passing >= 2 and failing >= 4


def test_transported_nest_keeps_the_derivation_reports(transported_nest):
    """A solved derivation of the transported nest passes, dense and with denominators; a rescaled twist spectator fails it."""
    solved = solve_derivation_space(transported_nest, 1, 0)
    assert solved
    rng = random.Random(59)
    others = [random_inputs.graded_map(rng, transported_nest.space) for _ in range(4)]
    assert assert_derivation_reports(transported_nest, solved[-1], 1, None, others)
    assert not assert_derivation_reports(transported_nest, solved[-1], 1, scaled(transported_nest.twist, 3), others)


def test_kernel_and_nesting_leave_no_cyclic_garbage():
    """The pick expansions' memos die with their pass, so reference counting frees everything the build made."""
    gc.collect()
    gc.disable()
    try:
        nest = iterated_bracket(OSP12.algebra, 5)
        kernel = nest._nambu_kernel
        assert kernel.index[5]
        del nest, kernel
        assert gc.collect() == 0
    finally:
        gc.enable()
