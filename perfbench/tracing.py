"""The traced run: spans around the public call of each layer.

Spans (name, start, end, parent and a few attributes) are kept in memory
and written out when the run ends.  Nothing inside qglab is instrumented:
each layer's public function is called and timed from here, on a group
freshly loaded from its JSON file, so no call is served from a memo cache
filled by an earlier pass.
"""
from __future__ import annotations

import contextlib
import re
import statistics
import time
import tracemalloc

from qglab import checks, coideal, duality, harmonic, hopf, lattice

from workloads import RESTARTS, SWEEP_DIMS, fresh_process_caches, run_op

TOL = harmonic.DEFAULT_TOL
MB = 2 ** 20


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def layer_calls(tracer: Tracer, group_info, lattice_layers: bool, seed: int) -> None:
    """Time each layer's public call on one group, in pipeline order."""
    def span(name):
        return tracer.span(name, group=group_info.name, dim=group_info.dim)

    fresh_process_caches()
    group = hopf.load_path(group_info.path)
    with span("hopf.validate"):
        hopf.validate(group)
    with span("hopf.gns"):
        hopf.gns(group)
    tracemalloc.start()
    try:
        with span("duality.regular_unitary") as rec:
            duality.regular_unitary(group, TOL)   # the call form `dual` uses
        rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    with span("duality.dual"):
        pair = duality.dual(group, TOL)
    if not lattice_layers:
        return

    with span("lattice.enumerate_idempotents") as rec:
        enum = lattice.enumerate_idempotents(group, restarts=RESTARTS, seed=seed)
    if enum.report.strategy == "search":
        rec.update(restarts=enum.report.restarts, converged=enum.report.converged)
    states = enum.states
    pairs = [(a, b) for i, a in enumerate(states) for b in states[i:]]
    for a, b in pairs:
        with span("lattice.meet"):
            lattice.meet(a, b)
    for a, b in pairs:
        with span("lattice.join_with_diagnostics") as rec:
            rec["iterations"] = lattice.join_with_diagnostics(a, b)[1].iterations
    with span("lattice.build_lattice"):
        lattice.build_lattice(states)
    for a in states:
        for b in states:
            with span("harmonic.preceq"):
                harmonic.preceq(a, b)
    for s in states:
        with span("coideal.expectation"):
            coideal.expectation(s)
    for s in states:
        with span("duality.dual_state"):
            duality.dual_state(s, pair)
    with span("checks.run_all_checks"):
        checks.run_all_checks(group, seed=seed, restarts=RESTARTS)


def traced_pass(tracer: Tracer, workload, groups, ops, seed: int) -> list:
    """The workload's operations, then the layer calls; returns the outputs."""
    outputs = []
    with tracer.span("pass"):
        for op in ops:
            with tracer.span("cli.op", group=op.group.name, dim=op.group.dim,
                             command=op.command):
                outputs.append(run_op(op))
        for g in groups:
            layer_calls(tracer, g, workload.checks_states, seed)
    return outputs


# ----------------------------------------------------------------------
# per-layer metrics from the spans
# ----------------------------------------------------------------------

TIMED = {
    "hopf.validate_s": "hopf.validate",
    "hopf.gns_s": "hopf.gns",
    "duality.regular_unitary_s": "duality.regular_unitary",
    "duality.dual_s": "duality.dual",
    "lattice.enumerate_s": "lattice.enumerate_idempotents",
    "lattice.meet_s": "lattice.meet",
    "lattice.join_s": "lattice.join_with_diagnostics",
    "lattice.build_lattice_s": "lattice.build_lattice",
    "harmonic.preceq_s": "harmonic.preceq",
    "coideal.expectation_s": "coideal.expectation",
    "duality.dual_state_s": "duality.dual_state",
    "checks.suite_s": "checks.run_all_checks",
    "cli.op_s": "cli.op",
}
COUNTED = {  # metric: (span, attribute summed)
    "lattice.search_restarts": ("lattice.enumerate_idempotents", "restarts"),
    "lattice.search_converged": ("lattice.enumerate_idempotents", "converged"),
    "lattice.join_iterations": ("lattice.join_with_diagnostics", "iterations"),
}
PEAK = ("duality.regular_unitary_peak_mb", "duality.regular_unitary")
PER_DIM = ("hopf.validate_s", "hopf.gns_s", "duality.regular_unitary_s",
           PEAK[0], "duality.dual_s")


def metric_names() -> list[str]:
    names = list(TIMED) + list(COUNTED) + [PEAK[0]]
    return names + [f"{m}.n{d}" for m in PER_DIM for d in SWEEP_DIMS]


def unit_of(name: str) -> str:
    base = re.sub(r"\.n\d+$", "", name)
    return "s" if base.endswith("_s") else "MB" if base.endswith("_mb") else "count"


def _pass_metrics(spans: list[dict]) -> dict[str, float]:
    """A layer that does not run in the workload reports 0."""
    values = {name: 0.0 for name in metric_names()}

    def add(metric, span, value, combine=float.__add__):
        for key in (metric, f"{metric}.n{span['dim']}"):
            if key in values:
                values[key] = combine(values[key], float(value))

    for s in spans:
        for metric, name in TIMED.items():
            if s["name"] == name:
                add(metric, s, s["end"] - s["start"])
        for metric, (name, attr) in COUNTED.items():
            if s["name"] == name and attr in s:
                add(metric, s, s[attr])
        if s["name"] == PEAK[1]:
            add(PEAK[0], s, s["peak_mb"], max)
    return values


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of each pass; the median over passes."""
    passes = [s["id"] for s in tracer.spans if s["name"] == "pass"]
    per_pass = [_pass_metrics([s for s in tracer.spans
                               if _root(tracer.spans, s) == p and "dim" in s])
                for p in passes]
    return {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}


def _root(spans, s):
    while s["parent"] is not None:
        s = spans[s["parent"]]
    return s["id"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the children's."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
    return totals
