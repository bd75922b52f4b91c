"""One path from a synthesis task to a certified circuit.

`run` synthesizes the task's circuit, applies the commute-and-cancel
cleanup to it, builds one report from it and certifies it against the
task with `verify.certify`.  The CLI synthesis commands and the bench
suites all go through it.  Its Steiner method is the public synthesizer
for the task's type, called as it is.  The pmh baseline has one
candidate per section width and keeps the one with the fewest CNOTs
after cleanup; it compares them as integer arrays
(`_routed_elimination`) and builds gates for the winner alone.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .circuits import Circuit
from .cnot_synth import (
    SynthesisReport,
    _arc_gates,
    _expand_ids,
    _pmh_pairs,
    _report,
    expand_templates,
    section_widths,
    synthesize_constrained,
)
from .gf2 import BinaryMatrix, check_invertible
from .graphs import ConnectivityGraph, _check_width, complete_graph
from .optimizer import DEFAULT_WINDOW, _survivors, cancel_pass
from .phase_synth import SumOverPaths, synthesize_cnot_rz
from .universal import route_universal
from .verify import Certificate, certify


@functools.cache
def _full_connectivity(n: int) -> ConnectivityGraph:
    """One `complete_graph(n)` per width, for the CNOT+RZ templates
    baseline, so that the n(n-1) arc gates are built once per width; it
    never needs a ladder, since every pair is an edge."""
    return complete_graph(n)


def _synthesize(task, g: ConnectivityGraph, method: str, cleanup: bool) -> tuple[Circuit, str]:
    """The task's circuit, cleaned up when `cleanup` is set, and the
    report's method name.

    The "steiner" method hands the task to the public synthesizer for its
    type (`synthesize_constrained`, `synthesize_cnot_rz` or
    `route_universal`), whose checks are the run's checks, and takes the
    method name from its report.  For a baseline, this is where `run`
    checks the task against the graph, once, before any synthesis: it must
    act on one qubit per graph node, and a matrix must be invertible.
    Both matrix baselines are `_routed_elimination`: pmh at each section
    width, templates as plain elimination."""
    if method not in ("steiner", "pmh", "templates"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(task, (BinaryMatrix, SumOverPaths, Circuit)):
        raise TypeError(f"cannot synthesize a {type(task).__name__}")
    if method == "steiner":
        synthesize = (synthesize_constrained if isinstance(task, BinaryMatrix) else
                      synthesize_cnot_rz if isinstance(task, SumOverPaths) else route_universal)
        circuit, report = synthesize(task, g)
        name = report.method
    else:
        width = task.dim if isinstance(task, BinaryMatrix) else task.num_qubits
        _check_width(width, g)
        if isinstance(task, BinaryMatrix):
            check_invertible(task)
            widths = section_widths(width) if method == "pmh" else (None,)
            return _routed_elimination(task, g, widths, cleanup), f"baseline_{method}"
        if method == "pmh":
            raise ValueError("the pmh baseline needs a matrix task")
        if isinstance(task, SumOverPaths):
            source, _ = synthesize_cnot_rz(task, _full_connectivity(g.node_count))
        else:  # a Circuit
            source = task
        # A baseline ignores connectivity, then expands each long-range CNOT.
        circuit, name = expand_templates(source, g), "baseline_templates"
    return (cancel_pass(circuit) if cleanup else circuit), name


def _routed_elimination(a: BinaryMatrix, g: ConnectivityGraph, widths, cleanup: bool) -> Circuit:
    """Full-connectivity elimination of `a` (`_pmh_pairs`) at the section
    width, of `widths`, whose template expansion has the fewest CNOTs,
    each expansion cleaned up first when `cleanup` is set; the first
    width wins ties.

    No candidate is built as gates.  Each width's elimination ops expand
    straight into the pair ids of their routed CNOTs (`_expand_ids`).  An
    id c·n+t splits into (c, t), the wire pair the cleanup reads for a
    CNOT, so the cleanup scan (`optimizer._survivors`) runs on those two
    arrays without gates: only an RZ merge reads a gate.  The candidates
    are compared by survivor count, or by expanded length without
    cleanup.  Only the winner's survivors become gates, the graph's own
    arc gates: the circuit `cancel_pass` would keep from the same
    expansion as gates."""
    n = a.dim
    best = None
    for w in widths:
        ids = _expand_ids(_pmh_pairs(a, w), g)
        alive = None
        if cleanup:
            controls, targets = np.divmod(ids, n)
            alive = np.frombuffer(_survivors(controls, targets, DEFAULT_WINDOW, None), bool)
        count = len(ids) if alive is None else np.count_nonzero(alive)
        if best is None or count < best[0]:
            best = count, ids, alive
    _, ids, alive = best
    return Circuit._unchecked(n, _arc_gates(ids if alive is None else ids[alive], g))


def baseline_pmh_templates(
    a: BinaryMatrix, g: ConnectivityGraph, cleanup: bool = True
) -> Circuit:
    """The circuit `run(a, g, "pmh", cleanup)` emits, without its report or
    certificate: partitioned elimination at each section width, template
    expansion and cleanup, keeping the fewest routed CNOTs."""
    return _synthesize(a, g, "pmh", cleanup)[0]


def run(
    task, graph: ConnectivityGraph, method: str = "steiner", cleanup: bool = True
) -> tuple[Circuit, SynthesisReport, Certificate]:
    """Synthesize, clean up and certify one task on the coupling graph.

    A `BinaryMatrix` is synthesized as a CNOT circuit, a `SumOverPaths` as a
    CNOT+RZ circuit, and a {CNOT, RZ, H} `Circuit` is routed.  `method` is
    "steiner" or a synthesize-then-route baseline: "pmh" (partitioned
    elimination, matrices only, at the section width whose routed circuit
    has the fewest CNOTs) or "templates" (plain elimination for a matrix,
    full-connectivity synthesis for a sum-over-paths, the input itself for
    a circuit), each followed by template expansion.  The report's
    `elapsed_ms` covers synthesis and cleanup.

    The task is checked once, before any synthesis, and raises ValueError
    when its qubit count is not the graph's node count, when it is a
    singular matrix (`SingularMatrixError`), when `method` is unknown, or
    when `method` is "pmh" and the task is not a matrix.  A task of any
    other type raises TypeError.
    """
    t0 = time.perf_counter()
    circuit, name = _synthesize(task, graph, method, cleanup)
    report = _report(name, graph.name, circuit, t0)
    return circuit, report, certify(task, circuit, graph)
