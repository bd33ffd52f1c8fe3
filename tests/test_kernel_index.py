"""The Leibniz kernel's per-slot index, transported inputs and the empty support.

The index of ``axioms._leibniz_kernel`` holds, per slot i >= 1, the table
T_i = T∘(S_1, .., S_{i-1}, ., S'_{i+1}, .., S'_n) grouped by its slot-i
coordinate, each entry an integer cell key, and in its out slot 0 the tensor
T itself grouped by output.  Every entry is a numerator over the kernel's
``scale``; the kernel takes the tensor and the spectators as integer tables
with their own denominators.  Each slot is compared, value for value, with
T_i composed by ``table_oracle._compose``, the ``Element`` form of the table
algebra on the true rational values, which shares no code with the kernel's
pick expansion (the identity at slot i): no entry may be left out, repeated
or unmerged, and no denominator may be lost.  Besides
Nambu kernels, the inputs cover the expansion's edge cases: the 1-ary twist
tensor with no spectators (the solver's commutation kernel), a one-output
cochain table with identity spectators (the phi-annihilation hypothesis) and
an empty support.

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
from fractions import Fraction

import pytest

from homnambu.algfile import AlgebraBundle, emit
from homnambu.axioms import _leibniz_kernel, check_nambu_identity
from homnambu.catalog import catalog_build
from homnambu.cli import main
from homnambu.cochains import SuperCochain, derivation_transfer
from homnambu.core import Element, GradedLinearMap, HomSuperAlgebra, NaryBracket
from homnambu.derivations import DerivationCandidate
from homnambu.iterated import iterated_bracket
from nambu_oracle import nambu_oracle
import random_inputs
import table_oracle

OSP12 = catalog_build("osp12")
OSP12_P = random_inputs.even_invertible(random.Random(1), OSP12.algebra.space)


def nambu_spectators(alg):
    """(tensor, before, after) as the Nambu kernel is built: twist j before slot j and j - 1 after it, as integer tables."""
    twists = [t.integer_columns for t in alg.twists]
    return alg.bracket.table, twists, [None] + twists


def decoded_index(tensor, outputs, space, before, after):
    """(out slot, [slot 1, .., slot n]), each as {cell: {output: value}} with its entry count, after asserting
    each entry's key and Koszul split; a value is the entry over the kernel's scale."""
    n, width = len(after), len(outputs)
    labels, d = space.labels, space.dim
    kernel = _leibniz_kernel(tensor, outputs, space, before, after)
    index = kernel.index
    assert len(index) == n + 1
    out, count = {}, 0
    for e, sides in index[0].items():
        (entries,) = sides  # no Koszul split: the out map passes no argument
        for k, v in entries.items():
            cell, pos = divmod(k, width)
            assert pos == 0 and v != 0
            out.setdefault(tuple(labels[cell // d ** (n - 1 - j) % d] for j in range(n)), {})[e] = Fraction(v, kernel.scale)
            count += 1
    slots = []
    for i, groups in enumerate(index[1:]):
        cells, count_i = {}, 0
        for e, sides in groups.items():
            for odd, entries in enumerate(sides):
                for k, v in entries.items():
                    cell, pos = divmod(k, width)
                    digits = [cell // d ** (n - 1 - j) % d for j in range(n)]
                    assert digits[i] == 0 and v != 0
                    y = tuple(labels[g] for g in digits[:i]) + (e,) + tuple(labels[g] for g in digits[i + 1 :])
                    assert sum(map(space.parity, y[:i])) % 2 == odd
                    cells.setdefault(y, {})[outputs[pos]] = Fraction(v, kernel.scale)
                    count_i += 1
        slots.append((cells, count_i))
    return (out, count), slots


def assert_index_is_each_slot_table(tensor, outputs, space, before, after):
    """The out slot is T and every slot's index equals T_i by the Element oracle, value for value; returns the
    slots' entry counts.

    The tensor and the spectators are integer tables, the spectators None for the identity, as the kernel takes them.
    """
    n = len(after)
    unary = lambda m: None if m is None else {(c,): Element({r: Fraction(v, m[0]) for r, v in image.items()})
                                              for c, image in m[1].items()}
    sigma, terms = tensor
    T = {y: Element({e: Fraction(v, sigma) for e, v in value.items()}) for y, value in terms.items()}
    (out, count), slots = decoded_index(tensor, outputs, space, before, after)
    assert {y: Element(cell) for y, cell in out.items()} == T
    assert count == sum(len(e.coeffs) for e in T.values())
    counts = []
    for i, (cells, count) in enumerate(slots):
        maps = [unary(m) for m in before[:i]] + [None] + [unary(m) for m in after[i + 1 : n]]
        expected = table_oracle._compose(T, slot_maps=maps)
        assert {y: Element(cell) for y, cell in cells.items()} == expected
        assert count == sum(len(e.coeffs) for e in expected.values())  # nothing repeated
        counts.append(count)
    return counts


def assert_nambu_index(alg):
    tensor, before, after = nambu_spectators(alg)
    return assert_index_is_each_slot_table(tensor, alg.space.labels, alg.space, before, after)


def test_index_is_each_slot_table_on_transported_osp12():
    alg = iterated_bracket(random_inputs.transport(OSP12, OSP12_P), 4)
    counts = assert_nambu_index(alg)
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
        assert_nambu_index(HomSuperAlgebra(space, NaryBracket(n, entries), twists))


def edge_inputs():
    """The pick expansion's edge cases as kernel inputs (tensor, outputs, space, before, after), each with its entry counts."""
    rng = random.Random(44)
    space = OSP12.algebra.space
    twists = [random_inputs.transport(OSP12, OSP12_P).twists[0]]
    twists += [random_inputs.hard_map(rng, random_inputs.hard_space(rng), kind) for kind in random_inputs.HARD_POOLS]
    for twist in twists:  # the solver's commutation kernel: the twist as a 1-ary tensor, no spectators
        scale, cols = twist.integer_columns
        tensor = (scale, {(c,): image for c, image in cols.items()})
        yield (tensor, twist.space.labels, twist.space, [], [None]), [sum(map(len, cols.values()))]
    # the phi-annihilation kernel: a degree-3 cochain table with the one output 0, the identity in every other slot
    phi = SuperCochain(space, 3, {("X", "Y", "H"): 1, ("X", "F", "G"): 2, ("H", "F", "G"): -3, ("F", "F", "Y"): 4})
    yield (phi.table, (0,), space, [None] * 3, [None] * 3), [len(phi.table[1])] * 3
    _, before, after = nambu_spectators(random_inputs.transport(OSP12, OSP12_P))
    yield ((1, {}), space.labels, space, before, after), [0, 0]  # an empty support
    yield ((1, {}), (0,), space, [None] * 3, [None] * 3), [0, 0, 0]


@pytest.mark.parametrize(
    "inputs, counts", list(edge_inputs()),
    ids=["twist-transported", "twist-empty-middle", "twist-multi-term", "cochain", "empty-nambu", "empty-cochain"],
)
def test_index_is_each_slot_table_on_edge_inputs(inputs, counts):
    assert assert_index_is_each_slot_table(*inputs) == counts


@pytest.mark.parametrize("n", (3, 4, 5))
def test_index_size_is_the_support_expansion_in_the_diagonal_basis(n):
    """osp12's twist is diagonal and invertible: each entry reaches one cell per slot, and no two merge."""
    alg = iterated_bracket(OSP12.algebra, n)
    support = sum(map(len, alg.bracket.table[1].values()))
    assert assert_nambu_index(alg) == [support] * n


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
