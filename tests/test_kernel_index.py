"""The Leibniz kernel's per-slot index, transported inputs and the empty support.

The index of ``axioms._leibniz_kernel`` holds, per slot i, the table
T_i = T∘(S_1, .., S_{i-1}, ., S'_{i+1}, .., S'_n) grouped by its slot-i
coordinate, each entry an integer cell key.  It is compared entry for entry
with T_i composed independently by ``axioms._compose`` (the identity at
slot i): no entry may be left out, repeated or unmerged.

Transported inputs move an algebra along an even invertible map P
(``random_inputs.transport``), which turns a diagonal twist into a dense
one while every identity holds or fails alike.  Nested osp12 must still
pass, the engine must match the brute-force oracle on transported nests,
and a monomial P must keep the failure count.

An all-zero bracket gives the kernel an empty support; the Nambu check, the
derivation solver and the phi-annihilation hypothesis must still pass and
count every basis tuple.
"""

import random

import pytest

from homnambu.algfile import AlgebraBundle, emit
from homnambu.axioms import _common, _compose, _leibniz_kernel, _preimages, check_nambu_identity
from homnambu.catalog import catalog_build
from homnambu.cli import main
from homnambu.cochains import SuperCochain, derivation_transfer
from homnambu.core import GradedLinearMap, HomSuperAlgebra, NaryBracket
from homnambu.derivations import DerivationCandidate
from homnambu.iterated import iterated_bracket
from nambu_oracle import nambu_oracle
import random_inputs

OSP12 = catalog_build("osp12")
OSP12_P = random_inputs.even_invertible(random.Random(1), OSP12.algebra.space)


def nambu_spectators(alg):
    """(terms, before, after, 1-ary spectator tables per slot) as the Nambu check builds its kernel."""
    _, terms = alg.bracket.table
    tau, forward = _common([t.integer_columns for t in alg.twists])
    reverse = [_preimages(cols) for cols in forward]
    unary = [(tau, {(c,): image for c, image in cols.items()}) for cols in forward]
    return terms, reverse, [None] + reverse, unary


def decoded_index(alg, before, after):
    """Slot i's index as {cell: {output: numerator}}, after asserting each entry's key and Koszul split."""
    space, n = alg.space, alg.arity
    labels, d = space.labels, space.dim  # the outputs are the labels too: d per cell
    terms = alg.bracket.table[1]
    index = _leibniz_kernel(terms, labels, space, before, after).index
    assert len(index) == n
    slots = []
    for i, groups in enumerate(index):
        cells, count = {}, 0
        for e, sides in groups.items():
            for odd, entries in enumerate(sides):
                for k, v in entries.items():
                    cell, pos = divmod(k, d)
                    digits = [cell // d ** (n - 1 - j) % d for j in range(n)]
                    assert digits[i] == 0 and v != 0
                    y = tuple(labels[g] for g in digits[:i]) + (e,) + tuple(labels[g] for g in digits[i + 1 :])
                    assert sum(map(space.parity, y[:i])) % 2 == odd
                    cells.setdefault(y, {})[labels[pos]] = v
                    count += 1
        slots.append((cells, count))
    return slots


def assert_index_is_each_slot_table(alg):
    """Every slot's index equals T_i by _compose, entry for entry; returns the entry counts."""
    terms, before, after, unary = nambu_spectators(alg)
    n = alg.arity
    counts = []
    for i, (cells, count) in enumerate(decoded_index(alg, before, after)):
        maps = unary[:i] + [None] + unary[i : n - 1]  # twist j before slot i, twist j - 1 after it
        _, expected = _compose((1, terms), slot_maps=maps)
        assert cells == expected
        assert count == sum(map(len, expected.values()))  # nothing repeated
        counts.append(count)
    return counts


def test_index_is_each_slot_table_on_transported_osp12():
    alg = iterated_bracket(random_inputs.transport(OSP12, OSP12_P), 4)
    counts = assert_index_is_each_slot_table(alg)
    support = sum(map(len, alg.bracket.table[1].values()))
    assert max(counts) > support  # the dense twist spreads entries over several cells


@pytest.mark.parametrize("kind", random_inputs.HARD_POOLS)
def test_index_is_each_slot_table_on_hard_pools(kind):
    rng = random.Random(41)
    for _ in range(12):
        space = random_inputs.hard_space(rng)
        n = rng.choice((3, 4))
        entries = random_inputs.graded_tensor(rng, space, n, density=0.5)
        twists = tuple(random_inputs.hard_map(rng, space, kind) for _ in range(n - 1))
        assert_index_is_each_slot_table(HomSuperAlgebra(space, NaryBracket(n, entries), twists))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_index_size_is_the_support_expansion_in_the_diagonal_basis(n):
    """osp12's twist is diagonal and invertible: each entry reaches one cell per slot, and no two merge."""
    alg = iterated_bracket(OSP12.algebra, n)
    support = sum(map(len, alg.bracket.table[1].values()))
    assert assert_index_is_each_slot_table(alg) == [support] * n


@pytest.mark.parametrize("n", (3, 4))
def test_transported_nests_of_osp12_pass(n):
    """The nest of the transported algebra is the transported nest, and it passes with a dense twist."""
    transported = random_inputs.transport(OSP12, OSP12_P)
    nest = iterated_bracket(transported, n)
    assert nest == random_inputs.transport(AlgebraBundle("nest", iterated_bracket(OSP12.algebra, n)), OSP12_P)
    assert sum(map(len, transported.twist.integer_columns[1].values())) >= 12
    report = check_nambu_identity(nest)
    assert report.passed
    assert report.tuples_checked == 5 ** (2 * n - 1)


@pytest.mark.parametrize("name", ("osp12", "g3_1_1"))
def test_transported_arity3_nests_match_oracle(name):
    bundle = catalog_build(name)
    P = random_inputs.even_invertible(random.Random(7), bundle.algebra.space)
    nest = iterated_bracket(random_inputs.transport(bundle, P), 3)
    full = nambu_oracle(nest, cap=10**6)
    for cap in (0, 2, 10**6):
        assert check_nambu_identity(nest, cap) == random_inputs.capped(full, cap)


def test_monomial_transport_keeps_the_failure_count():
    """A signed, scaled permutation P moves every failing basis cell onto one failing basis cell."""
    rng = random.Random(43)
    failing = 0
    for case in range(16):
        space = random_inputs.space(rng, 4)
        n = rng.choice((3, 3, 4)) if space.dim <= 3 else 3
        twists = tuple(random_inputs.graded_map(rng, space) for _ in range(n - 1))
        alg = HomSuperAlgebra(space, NaryBracket(n, random_inputs.graded_tensor(rng, space, n)), twists)
        moved = random_inputs.transport(AlgebraBundle("random", alg), random_inputs.monomial(rng, space))
        report = check_nambu_identity(alg, 0)
        assert check_nambu_identity(moved, 0).failures == report.failures
        failing += not report.passed
    assert failing >= 10


@pytest.fixture(scope="module")
def zero_ternary(tmp_path_factory):
    """An algebra file whose arity-3 bracket is all zero, under a twist that is not the identity."""
    space = OSP12.algebra.space
    twist = GradedLinearMap.from_matrix(space, [[2 if i == j else 0 for j in range(5)] for i in range(5)])
    path = tmp_path_factory.mktemp("zero") / "zero3.json"
    alg = HomSuperAlgebra(space, NaryBracket(3, {}), (twist, twist), multiplicative_flag=True)
    path.write_text(emit(AlgebraBundle("zero3", alg)))
    return path


def test_empty_support_check_passes_and_counts_every_tuple(zero_ternary, capsys):
    assert main(["check", str(zero_ternary), "--identity", "all"]) == 0
    out = capsys.readouterr().out
    assert f"PASS nambu (tuples={5 ** 5}, failures=0)" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("k", (0, 1))
@pytest.mark.parametrize("parity", (0, 1))
def test_empty_support_derive_keeps_every_commuting_map(zero_ternary, capsys, k, parity):
    """Every map that commutes with the diagonal twist 2 is a derivation of the zero bracket."""
    assert main(["derive", str(zero_ternary), "--k", str(k), "--parity", str(parity)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"dimension {13 if parity == 0 else 12} (power={k}, parity={parity})")


def test_empty_support_phi_annihilation_hypothesis_passes():
    """A zero cochain of degree 3 gives the hypothesis kernel an empty support at arity 3."""
    alg = catalog_build("g3_1_1").algebra
    phi = SuperCochain(alg.space, 3, {})
    cand = DerivationCandidate(GradedLinearMap.from_matrix(alg.space, [[0, 0], [0, 1]]), 0)
    report = derivation_transfer(cand, phi, alg, 5)
    assert report.hypothesis.passed
    assert report.hypothesis.tuples_checked == alg.space.dim ** 3
