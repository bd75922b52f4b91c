"""Equivalence checks: `certify` and `verify_equivalence` share `_check`.

A matrix task and a pair of CNOT-only circuits are checked over GF(2), a
`SumOverPaths` task by its sum-over-paths, all at any width; any other pair
of circuits as dense unitaries up to UNITARY_QUBIT_CAP wires.  Pairs never
go through sum-over-paths: RZ(1/2) on wires 0, 1 and 0^1 is the identity,
but its phase polynomial is not empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .circuits import Circuit
from .gf2 import simulate_cnot_circuit
from .graphs import ConnectivityGraph
from .phase_synth import SumOverPaths, extract_sum_over_paths
from .unitary import UNITARY_QUBIT_CAP, circuit_unitary, phase_aligned_deviation

UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    equivalent: bool
    deviation: float


class Certificate(NamedTuple):
    mode: str  # "gf2", "sum-over-paths", "unitary" or "edges" (edge legality only)
    ok: bool


def _check(task, circuit: Circuit, mode: str = "auto") -> EquivalenceReport | None:
    """Check the circuit against a matrix, sum-over-paths or circuit task;
    a circuit outside the task's gate set fails.  "gf2" or "unitary" forces
    that check on a pair of circuits, and "auto" returns None for a pair
    above the cap that is not CNOT-only."""
    if isinstance(task, SumOverPaths):
        same = circuit.count("h") == 0 and extract_sum_over_paths(circuit) == task
        return EquivalenceReport("sum-over-paths", same, float(not same))
    if isinstance(task, Circuit):
        cnot_only = task.is_cnot_only() and circuit.is_cnot_only()
        if mode == "auto" and not cnot_only:
            if task.num_qubits > UNITARY_QUBIT_CAP:
                return None
            mode = "unitary"
        if mode == "unitary":
            if circuit.num_qubits != task.num_qubits:
                return EquivalenceReport("unitary", False, math.inf)
            dev = phase_aligned_deviation(circuit_unitary(task), circuit_unitary(circuit))
            return EquivalenceReport("unitary", dev < UNITARY_TOL, dev)
        if mode not in ("auto", "gf2"):
            raise ValueError(f"unknown mode {mode!r}")
        if not cnot_only:
            raise ValueError("gf2 mode needs CNOT-only circuits")
        task = simulate_cnot_circuit(task)
    same = circuit.is_cnot_only() and simulate_cnot_circuit(circuit) == task
    return EquivalenceReport("gf2", same, float(not same))


def certify(task, circuit: Circuit, graph: ConnectivityGraph) -> Certificate:
    """Check that every CNOT lies on a graph edge and the circuit does the
    task, in `_check`'s mode or, when it has none, in mode "edges".

    A circuit of another width than the task fails and never raises, in
    the mode the task's kind is checked in: "gf2" for a matrix,
    "sum-over-paths" for a sum-over-paths, and for a circuit task "gf2"
    when both circuits are CNOT-only, else "unitary" for a task of up to
    UNITARY_QUBIT_CAP wires and "edges" above."""
    report = _check(task, circuit)
    if report is None:
        mode, same = "edges", circuit.num_qubits == task.num_qubits
    else:
        mode, same = report.mode, report.equivalent
    return Certificate(mode, edge_legal(circuit, graph) and same)


def verify_equivalence(a: Circuit, b: Circuit, mode: str = "auto") -> EquivalenceReport:
    """Check that two circuits implement the same operation.

    gf2 mode requires CNOT-only circuits and compares matrices exactly;
    unitary mode compares dense matrices up to global phase.  Above the cap
    auto mode raises ValueError unless both circuits are CNOT-only.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("circuits act on different wire counts")
    report = _check(a, b, mode)
    if report is None:
        raise ValueError(f"unitary mode capped at {UNITARY_QUBIT_CAP} qubits, got {a.num_qubits}")
    return report


def edge_legal(c: Circuit, g: ConnectivityGraph) -> bool:
    """True when every CNOT of the circuit lies on an edge of the graph."""
    arcs = g._arcs
    # One test per distinct wire tuple; only a CNOT has two wires.
    return all(q in arcs for q in set(map(attrgetter("qubits"), c.gates)) if len(q) == 2)
