"""One path from a synthesis task to a certified circuit.

`run` picks the synthesizer from the type of the task, applies the
commute-and-cancel cleanup, builds one report from the final circuit and
certifies the circuit against the task with `verify.certify`.  The CLI
synthesis commands and the bench suites all go through it.
"""

from __future__ import annotations

import time

from .circuits import Circuit
from .cnot_synth import (
    SynthesisReport,
    _report,
    _synthesize_constrained,
    expand_templates,
    pmh_synthesize,
)
from .gf2 import BinaryMatrix
from .graphs import ConnectivityGraph, complete_graph
from .optimizer import cancel_pass
from .phase_synth import SumOverPaths, _synthesize_cnot_rz
from .universal import _route_universal
from .verify import Certificate, certify


def _synthesize(task, g: ConnectivityGraph, method: str) -> tuple[Circuit, str]:
    """The uncleaned circuit for the task and the report's method name."""
    if method not in ("steiner", "pmh", "templates"):
        raise ValueError(f"unknown method {method!r}")
    if method == "pmh" and not isinstance(task, BinaryMatrix):
        raise ValueError("the pmh baseline needs a matrix task")
    if isinstance(task, BinaryMatrix):
        if method == "steiner":
            return _synthesize_constrained(task, g), "steiner"
        source = pmh_synthesize(task, partition=method == "pmh")
    elif isinstance(task, SumOverPaths):
        if method == "steiner":
            return _synthesize_cnot_rz(task, g), "steiner_rz"
        source = _synthesize_cnot_rz(task, complete_graph(g.node_count))
    elif isinstance(task, Circuit):
        if method == "steiner":
            return _route_universal(task, g), "route"
        source = task
    else:
        raise TypeError(f"cannot synthesize a {type(task).__name__}")
    # A baseline ignores connectivity, then expands each long-range CNOT.
    return expand_templates(source, g), f"baseline_{method}"


def run(
    task, graph: ConnectivityGraph, method: str = "steiner", cleanup: bool = True
) -> tuple[Circuit, SynthesisReport, Certificate]:
    """Synthesize, clean up and certify one task on the coupling graph.

    A `BinaryMatrix` is synthesized as a CNOT circuit, a `SumOverPaths` as a
    CNOT+RZ circuit, and a {CNOT, RZ, H} `Circuit` is routed.  `method` is
    "steiner" or a synthesize-then-route baseline: "pmh" (partitioned
    elimination, matrices only) or "templates" (plain elimination for a
    matrix, full-connectivity synthesis for a sum-over-paths, the input
    itself for a circuit), each followed by template expansion.  The
    report's `elapsed_ms` covers synthesis and cleanup.
    """
    t0 = time.perf_counter()
    circuit, name = _synthesize(task, graph, method)
    if cleanup:
        circuit = cancel_pass(circuit)
    report = _report(name, graph.name, circuit, t0)
    return circuit, report, certify(task, circuit, graph)
