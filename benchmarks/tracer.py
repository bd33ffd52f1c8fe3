"""In-process spans around the calls the CLI makes into each module.

The tracer replaces module attributes with timing wrappers for the length of
a ``with tracer.installed():`` block, so the package's own code is untouched.
A span is (name, start, end, parent, command id) plus counts read off the
call's return value.  Spans stay in memory; ``dump`` writes them out.

Self time of a span is its duration minus the durations of its direct
children, so the self times of one replay add up to its traced wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


def _report_counts(r):
    return {"tuples": r.tuples_checked, "failures": r.failures}


def _patch_points():
    """(owner, attribute, span name, counter) for every traced call site."""
    from homnambu import algfile, catalog, cli, derivations, linalg

    points = [
        (catalog.CatalogEntry, "build", "catalog.build", None),
        (catalog, "complete_skew_orbit", "core.orbit", None),
        (algfile, "complete_skew_orbit", "core.orbit", None),
        (algfile, "check_grading", "axioms.grading", None),
        (algfile, "parse", "algfile.parse", None),
        (algfile, "emit", "algfile.emit", lambda s: {"bytes": len(s.encode())}),
        (cli, "render_reports", "cli.render", None),
        (cli, "check_grading", "axioms.grading", None),
        (cli, "check_super_skew", "axioms.skew", None),
        (cli, "check_hom_jacobi", "axioms.hom_jacobi", None),
        (cli, "check_nambu_identity", "axioms.nambu", _report_counts),
        (cli, "check_multiplicative", "axioms.multiplicative", None),
        (cli, "iterated_bracket", "iterated.bracket", lambda a: {"entries": len(a.bracket.entries)}),
        (cli, "check_induction_conditions", "cochains.induction", None),
        (cli, "cochain_induced_bracket", "cochains.induction", None),
        (cli, "solve_derivation_space", "derivations.solve", None),
        (derivations, "derivation_constraints", "derivations.constraints", lambda r: {"rows": len(r[0])}),
        (linalg, "nullspace", "linalg.nullspace", None),
        (cli, "check_rb", "rotabaxter.check", None),
    ]
    for name in (
        "rb_induced_product",
        "check_3_pre_lie",
        "sub_adjacent",
        "check_derived_identities",
        "rb_morphism_report",
        "image_product",
        "compatibility_report",
    ):
        points.append((cli, name, "prelie.battery", None))
    return points


# Every span name a replay can record, in report order.
SPAN_NAMES = (
    "cli.main",
    "cli.render",
    "catalog.build",
    "algfile.parse",
    "algfile.emit",
    "core.orbit",
    "axioms.grading",
    "axioms.skew",
    "axioms.hom_jacobi",
    "axioms.nambu",
    "axioms.multiplicative",
    "iterated.bracket",
    "cochains.induction",
    "derivations.solve",
    "derivations.constraints",
    "linalg.nullspace",
    "rotabaxter.check",
    "prelie.battery",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.command: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "command": self.command,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record["counts"] = counter(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counter in _patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, first: int = 0) -> dict[str, dict]:
        """Self time (ms), call count and summed counts per span name."""
        spans = self.spans[first:]
        child_ns = defaultdict(int)
        for s in spans:
            if s["parent"] is not None and s["parent"] >= first:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out = {
            name: {"self_ms": 0.0, "calls": 0, "counts": defaultdict(int)}
            for name in SPAN_NAMES
        }
        for i, s in enumerate(spans, start=first):
            entry = out[s["name"]]
            entry["self_ms"] += (s["end_ns"] - s["start_ns"] - child_ns[i]) / 1e6
            entry["calls"] += 1
            for key, value in s["counts"].items():
                entry["counts"][key] += value
        return out

    def dump(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")
