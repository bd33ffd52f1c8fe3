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

The table algebra works on integer numerators over one scale per table;
``table_oracle`` also keeps its ``Fraction`` form.  Random tables whose
scales differ between operands (halves against thirds) must compose,
permute and add to the same values, sums that cancel must drop the cell,
equal tables at different scales must compare equal and a failing cell
must report the same sides.
"""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from homnambu import cli, cochains, prelie
from homnambu.axioms import _compose, _diff_report, _permute, _sum_tables, check_hom_jacobi, check_super_skew
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
    SuperSpace,
    complete_skew_orbit,
    element_at,
    integer_table,
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


def completed(arity, entries, space):
    """The skew orbits of {args: Element} entries, completed on their integer table, back as elements."""
    table = complete_skew_orbit(arity, integer_table({args: v.coeffs for args, v in entries.items()}), space)
    return {args: element_at(table, args) for args in table[1]}


def tensor(rng, space, arity, skew):
    """Random graded entries; skew-completed when ``skew`` and the orbits allow it."""
    entries = random_inputs.graded_tensor(rng, space, arity)
    if skew:
        try:
            return completed(arity, entries, space)
        except OrbitConflict:
            pass
    return entries


def twist(rng, space):
    return GradedLinearMap.identity(space) if rng.random() < 0.25 else random_inputs.graded_map(rng, space)


def skew_binary(rng, space):
    """A binary multiplicative algebra whose bracket is super-skew."""
    while True:
        try:
            entries = completed(2, random_inputs.graded_tensor(rng, space, 2), space)
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
    monkeypatch.setattr(cochains, "_pair_sum", lambda *args: integer_table({x: v.coeffs for x, v in table.items()}))
    bundle = catalog_build("L1", a=1, b=3)
    with pytest.raises(AssertionError, match="lost skew symmetry"):
        cochain_induced_bracket(bundle.cochains[0], bundle.algebra, 3)
    assert cli.main(["induce", "catalog:L1?a=1,b=3", "--method", "phi", "--n", "3"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.rstrip().endswith("AssertionError: induced bracket lost skew symmetry")


def elements(table):
    """An integer table as the oracles' {cell: Element} table."""
    return {x: element_at(table, x) for x in table[1]}


def integer_form(rng, space, arity, scale):
    """A random integer table at ``scale`` (numerators -3..3, no zeros) over all labels."""
    cells = {}
    for args in itertools.product(space.labels, repeat=arity):
        if rng.random() < 0.5:
            outputs = rng.sample(space.labels, rng.randint(1, min(2, space.dim)))
            cells[args] = {l: rng.choice((-3, -2, -1, 1, 2, 3)) for l in outputs}
    return scale, cells


def rescaled(table, k):
    """The same table over k times its scale."""
    scale, cells = table
    return scale * k, {x: {r: v * k for r, v in cell.items()} for x, cell in cells.items()}


def thirds_map(rng, space):
    """A random even map with entries over 3, so that its scale differs from the tables' halves."""
    cols = {}
    for l in space.labels:
        targets = [m for m in space.labels if space.parity(m) == space.parity(l)]
        if rng.random() < 0.85:
            picked = rng.sample(targets, rng.randint(1, len(targets)))
            cols[l] = Element({m: F(rng.choice((-2, -1, 1, 2)), 3) for m in picked})
    return GradedLinearMap(space, 0, cols)


def test_table_algebra_matches_fraction_oracle_at_mixed_scales():
    rng = random.Random(27)
    for case in range(76):
        dim = rng.randint(1, 3)
        space = SuperSpace(tuple(f"e{i}" for i in range(dim)), tuple(rng.randint(0, 1) for _ in range(dim)))
        n = rng.randint(1, 3) if case < 60 else 4 + case % 2  # at arities 4 and 5 many keys share a prefix
        T = integer_form(rng, space, n, 2) if case < 72 else (2, {})  # the last four compose an empty T
        inner = integer_form(rng, space, 2, 3)
        slots = [rng.choice((None, inner, thirds_map(rng, space))) for _ in range(n)]
        out = rng.choice((None, thirds_map(rng, space)))
        oracle_slots = [elements(m) if isinstance(m, tuple) else m for m in slots]
        assert elements(_compose(T, out, slots)) == oracle._compose(elements(T), out, oracle_slots)
        order = tuple(rng.sample(range(1, n + 1), n))
        sign = rng.choice((1, -1))
        assert elements(_permute(T, order, space, sign)) == oracle._permute(elements(T), order, space, sign)
        parts = [T, integer_form(rng, space, n, 3), rescaled(integer_form(rng, space, n, 2), 3)]
        assert elements(_sum_tables(parts)) == oracle._sum_tables(map(elements, parts))


def test_sums_that_cancel_drop_the_cell():
    """A table at scale 2 plus its negation at scale 3 (and at 6) is the empty table; a
    partial cancellation keeps only the cells that survive, as the oracle does."""
    rng = random.Random(28)
    space = SuperSpace(("e0", "e1", "e2"), (0, 1, 0))
    for _ in range(20):
        T = integer_form(rng, space, 2, 2)
        half = {x: {r: 2 * v for r, v in cell.items()} for x, cell in T[1].items()}  # even numerators over 2
        negated = (3, {x: {r: -3 * v // 2 for r, v in cell.items()} for x, cell in half.items()})
        assert _sum_tables([(2, half), negated]) == (6, {})
        assert _sum_tables([T, rescaled(_permute(T, (1, 2), space, -1), 3)])[1] == {}  # T plus -T over 6
        other = integer_form(rng, space, 2, 3)
        total = _sum_tables([(2, half), negated, other])
        assert elements(total) == oracle._sum_tables([elements((2, half)), elements(negated), elements(other)])
        assert total[1].keys() == other[1].keys()
        assert all(all(cell.values()) for cell in total[1].values())


def test_diff_report_cross_multiplies_scales():
    """Equal tables at different scales pass; a failing cell keeps the sides the
    Fraction tables reported, printed the same."""
    rng = random.Random(30)
    space = SuperSpace(("e0", "e1"), (0, 1))
    for _ in range(20):
        T = integer_form(rng, space, 2, 2)
        assert _diff_report("equal", space, 2, T, rescaled(T, 3), 16).passed
        assert _diff_report("equal", space, 2, rescaled(T, 5), rescaled(T, 3), 16).passed
        U = integer_form(rng, space, 2, 3)
        for cap in CAPS:
            expected = oracle.diff_report("mixed", space, 2, elements(T), elements(U), cap)
            assert _diff_report("mixed", space, 2, T, U, cap) == expected
    left, right = (2, {("e0", "e1"): {"e0": 1}, ("e1", "e1"): {"e1": 3}}), (3, {("e0", "e1"): {"e0": 2}})
    report = _diff_report("mixed", space, 2, left, right, 16)
    assert [c.describe() for c in report.counterexamples] == [
        "(e0, e1): lhs=(1/2)*e0 rhs=(2/3)*e0",
        "(e1, e1): lhs=(3/2)*e1 rhs=0",
    ]
