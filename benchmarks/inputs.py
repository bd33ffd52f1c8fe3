"""Seeded input files for the benchmark workloads.

Two kinds of file are written, both in the package's algebra format:

* random graded n-ary algebras for ``nambu-failing``: skew-complete generating
  sets of sparse random rationals, with one of three twist families (one
  shared diagonal twist, one shared shear twist whose columns have several
  terms, or a distinct twist per slot);
* nested osp12 brackets for ``derive-nested``, built in-process with
  ``iterated_bracket`` and ``algfile.emit`` so that set-up does not pay for the
  Nambu check that ``homnambu induce`` would run.

The same seed always gives byte-identical files.  Each file is described by
the properties a route-specific performance claim has to cite: the Nambu
cells ``d**(2n-1)`` and the number of twist columns with more than one term.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# (dim, arity) per file; d**(2n-1) is 7776, 16807, 32768 and 78125, so the
# set sits on both sides of the 30 000-cell switch to the support-driven route.
FAILING_SHAPES = ((6, 3), (7, 3), (8, 3), (5, 4))
TWIST_FAMILIES = ("diagonal", "shear", "per-slot")
GENERATORS_PER_ARITY = {3: 5, 4: 3}  # skew orbits of 30 and 72 entries


@dataclass(frozen=True)
class InputFile:
    path: str  # relative to the run's working directory
    dim: int
    arity: int
    twist_family: str
    cells: int
    multi_term_twist_cols: int


def _rational(rng: random.Random) -> str:
    value = Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 1, 2, 3)))
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _describe(path: str, doc: dict, family: str) -> InputFile:
    d = len(doc["basis"])
    n = doc["arity"]
    multi = sum(
        1
        for matrix in doc["twists"]
        for col in range(d)
        if sum(1 for row in matrix if row[col] != "0") > 1
    )
    return InputFile(path, d, n, family, d ** (2 * n - 1), multi)


def random_algebra_doc(
    shape_rng: random.Random, rng: random.Random, dim: int, arity: int, family: str
) -> dict:
    """A skew-complete document whose generators respect the grading.

    ``shape_rng`` picks which generator orbits and output labels are nonzero;
    ``rng`` picks a parity-preserving relabelling of that support, every
    coefficient and the twists.  Keeping the support's shape fixed keeps the
    cost of a file nearly the same from seed to seed.
    """
    odd = 2 if dim < 7 else 3
    labels = [f"e{i}" for i in range(dim)]
    parity = {l: int(i >= dim - odd) for i, l in enumerate(labels)}
    by_parity = {p: [l for l in labels if parity[l] == p] for p in (0, 1)}

    support = {}
    while len(support) < GENERATORS_PER_ARITY[arity]:
        # distinct labels: every generator's skew orbit has arity! tuples
        args = tuple(sorted(shape_rng.sample(range(dim), arity)))
        if args not in support:
            out_parity = sum(parity[labels[i]] for i in args) % 2
            support[args] = shape_rng.sample(by_parity[out_parity], 2)
    relabel = {}
    for p in (0, 1):
        relabel.update(zip(by_parity[p], rng.sample(by_parity[p], len(by_parity[p]))))
    generators = {}
    for args, outs in support.items():
        key = tuple(sorted((relabel[labels[i]] for i in args), key=labels.index))
        generators[key] = {
            l: _rational(rng) for l in sorted((relabel[o] for o in outs), key=labels.index)
        }

    def diagonal():
        rows = [["0"] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = _rational(rng)
        return rows

    def shear():
        # parity-preserving: one off-diagonal entry in each parity block
        rows = diagonal()
        i, j = rng.sample(range(dim - odd), 2)
        rows[i][j] = _rational(rng)
        i, j = rng.sample(range(dim - odd, dim), 2)
        rows[i][j] = _rational(rng)
        return rows

    if family == "diagonal":
        twists, multiplicative = [diagonal()], True
    elif family == "shear":
        twists, multiplicative = [shear()], True
    else:
        twists = [diagonal() if j % 2 == 0 else shear() for j in range(arity - 1)]
        multiplicative = False
    return {
        "name": f"random_{family}_d{dim}_n{arity}",
        "basis": [{"label": l, "parity": parity[l]} for l in labels],
        "arity": arity,
        "multiplicative": multiplicative,
        "twists": twists,
        "bracket": [
            {"args": list(args), "value": value}
            for args, value in sorted(generators.items(), key=lambda g: [labels.index(l) for l in g[0]])
        ],
        "skew_complete": True,
    }


def write_failing_inputs(seed: int, workdir: Path) -> list[InputFile]:
    shape_rng = random.Random("nambu-failing/support")
    rng = random.Random(f"nambu-failing/{seed}")
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    files = []
    for family in TWIST_FAMILIES:
        for dim, arity in FAILING_SHAPES:
            doc = random_algebra_doc(shape_rng, rng, dim, arity, family)
            path = f"inputs/{family}_d{dim}_n{arity}.alg"
            (workdir / path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            files.append(_describe(path, doc, family))
    return files


def write_nested_osp12(params: dict[str, str], arities, workdir: Path) -> list[InputFile]:
    """Nested osp12 files, one per arity, named as ``induce`` would name them."""
    from homnambu import algfile, catalog
    from homnambu.iterated import iterated_bracket

    bundle = catalog.catalog_build("osp12", **{k: Fraction(v) for k, v in params.items()})
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    files = []
    for n in arities:
        nested = algfile.AlgebraBundle(f"osp12_iter_{n}", iterated_bracket(bundle.algebra, n))
        text = algfile.emit(nested)
        path = f"inputs/osp12_iter_{n}.alg"
        (workdir / path).write_text(text, encoding="utf-8")
        files.append(_describe(path, json.loads(text), "diagonal"))
    return files
