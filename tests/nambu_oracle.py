"""Brute-force oracle for the twisted fundamental (Nambu) identity.

Evaluates both sides of the identity with the generic multilinear evaluator at
every (x-tuple, y-tuple) over the basis, in lexicographic order, and records
the failing cells exactly as :func:`homnambu.axioms.check_nambu_identity`
reports them.  The only shortcut skips an x-tuple when no tensor entry starts
with it and no twisted image of it is a prefix of a tensor entry: then both
sides vanish at every y-tuple.
"""

from __future__ import annotations

from homnambu.axioms import CheckReport, Counterexample
from homnambu.core import Element, HomSuperAlgebra, eval_bracket


def nambu_oracle(alg: HomSuperAlgebra, cap: int = 16) -> CheckReport:
    n = alg.arity
    space = alg.space
    labels = space.labels
    entries = alg.bracket.entries
    twisted = [{l: t.apply_basis(l) for l in labels} for t in alg.twists]
    prefixes = {args[: n - 1] for args in entries}
    kept = []
    failures = 0
    for xs in space.tuples(n - 1):
        inner_by_arg = {b: entries[xs + (b,)] for b in labels if xs + (b,) in entries}
        hits = any(
            all(p[j] in twisted[j][xs[j]].coeffs for j in range(n - 1))
            for p in prefixes
        )
        if not inner_by_arg and not hits:
            continue
        x_parity = sum(space.parity(x) for x in xs) % 2
        head = [twisted[j][xs[j]] for j in range(n - 1)]
        for ys in space.tuples(n):
            lhs = eval_bracket(alg, head + [alg.bracket.value(ys)])
            rhs = Element()
            for i in range(n):
                inner = inner_by_arg.get(ys[i])
                if inner is None:
                    continue
                args = [twisted[j][ys[j]] for j in range(i)]
                args.append(inner)
                args.extend(twisted[j - 1][ys[j]] for j in range(i + 1, n))
                term = eval_bracket(alg, args)
                y_parity = sum(space.parity(y) for y in ys[:i]) % 2
                rhs = rhs + (term.scale(-1) if x_parity and y_parity else term)
            if lhs != rhs:
                failures += 1
                if len(kept) < cap:
                    kept.append(Counterexample(xs + ys, lhs, rhs))
    return CheckReport(
        identity="nambu",
        passed=failures == 0,
        counterexamples=tuple(kept),
        failures=failures,
        tuples_checked=space.dim ** (2 * n - 1),
    )
