"""Span tracing of steinersynth's public functions, for the traced run.

Each wrapped call records a span [name, start, end, parent span id,
instance id] in memory.  Wrappers are installed at every import site: the
package modules use ``from .graphs import steiner_approx`` and the like, so
every ``steinersynth.*`` module attribute bound to a traced function is
replaced, and restored by ``uninstall``.  Per-gate helpers such as
``universal.commutes`` are deliberately not traced: with millions of calls
the wrapper would be what gets measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function.
TRACED = [
    ("graphs", "steiner_approx"),
    ("graphs", "shortest_path"),
    ("graphs", "distances_from"),
    ("cnot_synth", "synthesize_constrained"),
    ("cnot_synth", "plan_pre_transpose"),
    ("cnot_synth", "plan_post_transpose"),
    ("cnot_synth", "pmh_synthesize"),
    ("cnot_synth", "expand_templates"),
    ("bench", "baseline_pmh_templates"),
    ("phase_synth", "synthesize_cnot_rz"),
    ("phase_synth", "synth_parity_network_constrained"),
    ("phase_synth", "extract_sum_over_paths"),
    ("gf2", "invert"),
    ("gf2", "multiply"),
    ("gf2", "simulate_cnot_circuit"),
    ("universal", "merge_delete_h"),
    ("universal", "partition_segments"),
    ("universal", "route_universal"),
    ("optimizer", "cancel_pass"),
    ("circuits", "Circuit.depth"),
    ("verify", "edge_legal"),
]

SYNTH = "cnot_synth.synthesize_constrained"


def _counters(name: str, args, result) -> dict[str, float]:
    """Work counts recorded when a traced call returns."""
    if name == "graphs.steiner_approx":
        return {"tree_edges": result.weight}
    if name == SYNTH:
        return {"cnots_out": result[0].cnot_count}
    if name == "cnot_synth.expand_templates":
        return {"gates_out": len(result)}
    if name == "phase_synth.synth_parity_network_constrained":
        return {"cnots_out": result[0].cnot_count}
    if name == "universal.merge_delete_h":
        return {"h_in": args[0].count("h"), "h_out": result.count("h")}
    if name == "universal.partition_segments":
        blocks = [s for s in result if s.kind == "cnot_block"]
        return {"segments": len(result), "cnot_segments": len(blocks),
                "cnot_segment_gates": sum(len(s.gates) for s in blocks)}
    if name == "optimizer.cancel_pass":
        return {"gates_in": len(args[0]), "gates_removed": len(args[0]) - len(result)}
    return {}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        totals[name] += t
    return dict(totals)


class Tracer:
    """Installs span-recording wrappers and accumulates spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.instance = -1
        self._stack: list[int] = []
        self._synth_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns its result."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer._synth_depth and name in (
                "graphs.steiner_approx", "cnot_synth.plan_pre_transpose",
                "cnot_synth.plan_post_transpose",
            ):
                tracer.counts[f"{name}.under_synth"] += 1
            tracer._synth_depth += name == SYNTH
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            finally:
                tracer._synth_depth -= name == SYNTH
            for key, value in _counters(name, args, result).items():
                tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        for modname, _ in TRACED:
            importlib.import_module(f"steinersynth.{modname}")
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "steinersynth"]
        for modname, attr in TRACED:
            mod = sys.modules[f"steinersynth.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = getattr(cls, meth)
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, instance."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
