"""One path from a synthesis task to a certified circuit.

`run` builds the task's candidate circuits, applies the commute-and-cancel
cleanup to each, keeps the one with the fewest CNOTs, builds one report
from it and certifies it against the task with `verify.certify`.  The CLI
synthesis commands and the bench suites all go through it.  Its Steiner
method is the public synthesizer for the task's type, called as it is.
"""

from __future__ import annotations

import functools
import time

from .circuits import Circuit
from .cnot_synth import (
    SynthesisReport,
    _expand_pairs,
    _pmh_pairs,
    _report,
    expand_templates,
    section_widths,
    synthesize_constrained,
)
from .gf2 import BinaryMatrix, check_invertible
from .graphs import ConnectivityGraph, _check_width, complete_graph
from .optimizer import _fewest_cnots
from .phase_synth import SumOverPaths, synthesize_cnot_rz
from .universal import route_universal
from .verify import Certificate, certify


@functools.cache
def _full_connectivity(n: int) -> ConnectivityGraph:
    """One `complete_graph(n)` per width, for the CNOT+RZ templates
    baseline, so that the n(n-1) arc gates are built once per width; its
    ladder memo stays empty, since every pair is an edge."""
    return complete_graph(n)


def _candidates(task, g: ConnectivityGraph, method: str):
    """The uncleaned candidate circuits for the task, first preferred, and
    the report's method name.

    The "steiner" method hands the task to the public synthesizer for its
    type (`synthesize_constrained`, `synthesize_cnot_rz` or
    `route_universal`), whose checks are the run's checks, and takes the
    method name from its report.  For a baseline, this is where `run`
    checks the task against the graph, once, before any synthesis: it must
    act on one qubit per graph node, and a matrix must be invertible.

    Both matrix baselines expand full-connectivity elimination
    (`_pmh_pairs`) straight from its (control, target) ops into the graph's
    shared gates (`_expand_pairs`), so no CNOT is built only to be replaced:
    pmh at each section width w, each built when it is reached, and
    templates as plain elimination."""
    if method not in ("steiner", "pmh", "templates"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(task, (BinaryMatrix, SumOverPaths, Circuit)):
        raise TypeError(f"cannot synthesize a {type(task).__name__}")
    if method == "steiner":
        synthesize = (synthesize_constrained if isinstance(task, BinaryMatrix) else
                      synthesize_cnot_rz if isinstance(task, SumOverPaths) else route_universal)
        circuit, report = synthesize(task, g)
        return [circuit], report.method
    width = task.dim if isinstance(task, BinaryMatrix) else task.num_qubits
    _check_width(width, g)
    if isinstance(task, BinaryMatrix):
        check_invertible(task)
        widths = section_widths(width) if method == "pmh" else (None,)
        circuits = (Circuit._unchecked(width, tuple(_expand_pairs(_pmh_pairs(task, w), g)))
                    for w in widths)
        return circuits, f"baseline_{method}"
    if method == "pmh":
        raise ValueError("the pmh baseline needs a matrix task")
    if isinstance(task, SumOverPaths):
        source, _ = synthesize_cnot_rz(task, _full_connectivity(g.node_count))
    else:  # a Circuit
        source = task
    # A baseline ignores connectivity, then expands each long-range CNOT.
    return [expand_templates(source, g)], "baseline_templates"


def baseline_pmh_templates(
    a: BinaryMatrix, g: ConnectivityGraph, cleanup: bool = True
) -> Circuit:
    """The circuit `run(a, g, "pmh", cleanup)` emits, without its report or
    certificate: partitioned elimination at each section width, template
    expansion and cleanup, keeping the fewest routed CNOTs."""
    return _fewest_cnots(_candidates(a, g, "pmh")[0], cleanup)


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
    candidates, name = _candidates(task, graph, method)
    circuit = _fewest_cnots(candidates, cleanup)
    report = _report(name, graph.name, circuit, t0)
    return circuit, report, certify(task, circuit, graph)
