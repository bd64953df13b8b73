"""Per-layer spans and counts, recorded from the benchmark's own files.

Timing wrappers are installed on public functions and methods of `nullag`
for the traced pass only.  A function is patched at the name its caller
looks it up by (for example `cli.load_input_file`, which `cli` imported from
`modelio`); a method is patched on its class.  A target that no longer
exists is recorded as absent, and the metrics fed only by absent targets
are reported as absent rather than crashing the run.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  A span's self time is its duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _rows(args, result) -> int:
    """Point rows of the first array argument after `self`."""
    return int(np.atleast_2d(np.asarray(args[1], dtype=float)).shape[0])


def _cube_points(args, result) -> int:
    return int(result[0].shape[0])


def _face_points(args, result) -> int:
    return sum(int(face[0].shape[0]) for face in result)


def _exit2(args, result) -> int:
    return int(result == 2)


# (owner, attribute, span name, amount) where owner is "module" or
# "module:Class" and amount(args, result) gives the work count of one call.
# The span name's first component is the layer it belongs to.
SPAN_TARGETS = [
    ("nullag.cli", "main", "cli.main", _exit2),
    ("nullag.cli", "load_input_file", "modelio.load_input_file", None),
    ("nullag.cli", "orbit_summary", "tensors.orbit_summary", None),
    ("nullag.tensors", "project", "tensors.project", None),
    ("nullag.cli", "certify_null", "verifier.certify_null", None),
    ("nullag.verifier", "boundary_dependence_test", "verifier.boundary_dependence_test", None),
    ("nullag.verifier", "action_integral", "verifier.action_integral", None),
    ("nullag.verifier:QuadraticLagrangian", "evaluate", "verifier.evaluate", _rows),
    ("nullag.verifier:CallableLagrangian", "evaluate", "verifier.evaluate", _rows),
    ("nullag.rund:RundLagrangian", "evaluate", "verifier.evaluate", _rows),
    ("nullag.verifier:QuadraticLagrangian", "closed_residual", "verifier.closed_residual", None),
    ("nullag.verifier:FieldSampler", "field", "polyfield.sample", None),
    ("nullag.verifier:FieldSampler", "boundary_delta", "polyfield.sample", None),
    ("nullag.verifier", "random_polyfield", "polyfield.sample", None),
    ("nullag.verifier", "bubble", "polyfield.sample", None),
    ("nullag.micropolar", "random_polyfield", "polyfield.sample", None),
    ("nullag.micropolar", "bubble", "polyfield.sample", None),
    ("nullag.polyfield:PolyField", "eval", "polyfield.eval", _rows),
    ("nullag.polyfield:PolyField", "eval_grad", "polyfield.eval", _rows),
    ("nullag.polyfield:PolyField", "eval_hess", "polyfield.eval", _rows),
    ("nullag.polyfield:PolyMatrixField", "eval", "polyfield.eval", _rows),
    ("nullag.verifier", "cube_rule", "quadrature.rule", _cube_points),
    ("nullag.quadrature", "cube_rule", "quadrature.rule", _cube_points),
    ("nullag.micropolar", "face_rules", "quadrature.rule", _face_points),
    ("nullag.rund:GeneratorSet", "first_partials", "rund.first_partials", _rows),
    ("nullag.rund", "coefficient_identity_residuals", "rund.identity", None),
    ("nullag.micropolar", "surface_potential", "micropolar.surface_potential", None),
    ("nullag.micropolar", "check_null_sufficient", "micropolar.check", None),
    ("nullag.micropolar", "split_B", "micropolar.split", None),
    ("nullag.micropolar", "cauchy_analogue", "micropolar.split", None),
    ("nullag.quasicrystal", "check_qc_null", "quasicrystal.check", None),
    ("nullag.em", "check_em_null", "em.check", None),
    ("nullag.report:ConditionCheck", "as_dict", "report.build", None),
    ("nullag.report:ConditionReport", "as_dict", "report.build", None),
] + [
    (f"nullag.{module}", name, "report.build", None)
    for module in ("micropolar", "quasicrystal", "em")
    for name in ("make_check", "make_report")
]

# Hot calls that are counted but get no span of their own: their time stays
# in the caller's self time.
COUNT_TARGETS = [
    ("nullag.polyfield:Poly3", "diff", "polyfield.diff"),
    ("nullag.rund:GenPoly", "eval", "rund.genpoly_eval"),
]

LAYERS = ("cli", "modelio", "report", "tensors", "micropolar", "quasicrystal", "em",
          "polyfield", "quadrature", "verifier", "rund")

# metric -> (unit, kind, sources): kind "self" sums self seconds of the
# named spans, "calls" counts their calls, "amount" sums their work counts,
# "count" reads a count-only target.
METRICS = {
    "polyfield.self_s": ("s", "self", ["polyfield.eval"]),
    "polyfield.points": ("count", "amount", ["polyfield.eval"]),
    "polyfield.us_per_point": ("us", "ratio", None),
    "polyfield.diff_calls": ("count", "count", ["polyfield.diff"]),
    "polyfield.sample_s": ("s", "self", ["polyfield.sample"]),
    "verifier.certify_self_s": ("s", "self", ["verifier.certify_null"]),
    "verifier.evaluate_s": ("s", "self", ["verifier.evaluate"]),
    "verifier.density_rows": ("count", "amount", ["verifier.evaluate"]),
    "verifier.closed_residual_s": ("s", "self", ["verifier.closed_residual"]),
    "verifier.closed_residual_calls": ("count", "calls", ["verifier.closed_residual"]),
    "verifier.action_s": ("s", "self", ["verifier.action_integral"]),
    "verifier.action_calls": ("count", "calls", ["verifier.action_integral"]),
    "quadrature.points": ("count", "amount", ["quadrature.rule"]),
    "quadrature.rule_s": ("s", "self", ["quadrature.rule"]),
    "rund.first_partials_s": ("s", "self", ["rund.first_partials"]),
    "rund.first_partials_rows": ("count", "amount", ["rund.first_partials"]),
    "rund.genpoly_eval_calls": ("count", "count", ["rund.genpoly_eval"]),
    "rund.identity_s": ("s", "self", ["rund.identity"]),
    "micropolar.surface_potential_s": ("s", "self", ["micropolar.surface_potential"]),
    "micropolar.check_s": ("s", "self", ["micropolar.check"]),
    "micropolar.split_s": ("s", "self", ["micropolar.split"]),
    "quasicrystal.check_s": ("s", "self", ["quasicrystal.check"]),
    "em.check_s": ("s", "self", ["em.check"]),
    "tensors.project_s": ("s", "self", ["tensors.project"]),
    "tensors.orbit_summary_s": ("s", "self", ["tensors.orbit_summary"]),
    # Both walk the uncached orbits of a symmetry class once per call.
    "tensors.project_calls": ("count", "calls", ["tensors.project", "tensors.orbit_summary"]),
    "modelio.load_s": ("s", "self", ["modelio.load_input_file"]),
    "modelio.files": ("count", "calls", ["modelio.load_input_file"]),
    "report.self_s": ("s", "self", ["report.build"]),
    "cli.self_s": ("s", "self", ["cli.main"]),
    "cli.exit2": ("count", "amount", ["cli.main"]),
    "trace.overhead": ("ratio", "overhead", None),
}

COUNT_METRICS = [name for name, (unit, _, _) in METRICS.items() if unit == "count"]


class Tracer:
    """Span and count recorder for one single-threaded traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.amounts.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if amount is not None:
                self.amounts[idx] = amount(args, result)
            return result
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner: str, attr: str, make) -> None:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name, None)
        # A method is patched only where its class defines it.
        original = None if target is None else vars(target).get(attr)
        if original is None:
            self.absent.append(f"{owner}.{attr}")
            return
        setattr(target, attr, make(original))
        self._patched.append((target, attr, original))

    def install(self) -> None:
        self.absent = []
        for owner, attr, name, amount in SPAN_TARGETS:
            self._patch(owner, attr, lambda fn, n=name, a=amount: self._span(fn, n, a))
        for owner, attr, name in COUNT_TARGETS:
            self._patch(owner, attr, lambda fn, n=name: self._counter(fn, n))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def self_times(self) -> np.ndarray:
        starts, ends = np.array(self.starts), np.array(self.ends)
        durations = ends - starts
        child = np.zeros(len(durations))
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        return durations - child

    def write(self, path: Path, header: dict) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        payload = dict(header, absent=self.absent, counts=dict(self.counts), span_names=table, spans={
            "name": [index[n] for n in self.names],
            "start": [round(s - t0, 9) for s in self.starts],
            "end": [round(e - t0, 9) for e in self.ends],
            "parent": self.parents,
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def _absent_spans(tracer: Tracer) -> set[str]:
    """Span or count names all of whose targets are absent."""
    present, missing = set(), set()
    for owner, attr, name, _ in SPAN_TARGETS:
        (missing if f"{owner}.{attr}" in tracer.absent else present).add(name)
    for owner, attr, name in COUNT_TARGETS:
        (missing if f"{owner}.{attr}" in tracer.absent else present).add(name)
    return missing - present


def layer_metrics(tracer: Tracer, overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metric values and the names of absent metrics."""
    self_s = tracer.self_times()
    by_span: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0])  # self, calls, amount
    for name, s, amount in zip(tracer.names, self_s, tracer.amounts):
        entry = by_span[name]
        entry[0] += float(s)
        entry[1] += 1
        entry[2] += amount
    missing = _absent_spans(tracer)
    values, absent = {}, []
    for metric, (_, kind, sources) in METRICS.items():
        if sources and all(s in missing for s in sources):
            absent.append(metric)
        if kind == "self":
            values[metric] = sum(by_span[s][0] for s in sources)
        elif kind == "calls":
            values[metric] = sum(by_span[s][1] for s in sources)
        elif kind == "amount":
            values[metric] = sum(by_span[s][2] for s in sources)
        elif kind == "count":
            values[metric] = sum(tracer.counts[s] for s in sources)
    points = values["polyfield.points"]
    values["polyfield.us_per_point"] = 1e6 * values["polyfield.self_s"] / points if points else 0.0
    if "polyfield.points" in absent:
        absent.append("polyfield.us_per_point")
    values["trace.overhead"] = overhead
    return values, absent


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Share of traced verdict time spent as self time in each layer; the
    benchmark's own `bench.verdict` spans hold what no layer claims."""
    self_s = tracer.self_times()
    totals: dict[str, float] = defaultdict(float)
    for name, s in zip(tracer.names, self_s):
        totals[name.split(".", 1)[0]] += float(s)
    verdict_time = sum(e - s for n, s, e, p in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
                       if n == "bench.verdict" and p < 0)
    return {layer: totals[layer] / verdict_time for layer in LAYERS + ("bench",)} if verdict_time else {}
