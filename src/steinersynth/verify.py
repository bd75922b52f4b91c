"""Circuit equivalence verification: exact GF(2) or dense unitary."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .circuits import Circuit
from .gf2 import simulate_cnot_circuit
from .graphs import ConnectivityGraph
from .unitary import UNITARY_QUBIT_CAP, circuit_unitary, phase_aligned_deviation

UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    equivalent: bool
    deviation: float
    detail: str = ""


def verify_equivalence(a: Circuit, b: Circuit, mode: str = "auto") -> EquivalenceReport:
    """Check that two circuits implement the same operation.

    gf2 mode requires CNOT-only circuits and compares matrices exactly;
    unitary mode compares dense matrices up to global phase (wire count
    capped).  auto picks gf2 when both circuits are CNOT-only.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("circuits act on different wire counts")
    if mode == "auto":
        mode = "gf2" if a.is_cnot_only() and b.is_cnot_only() else "unitary"
    if mode == "gf2":
        if not (a.is_cnot_only() and b.is_cnot_only()):
            raise ValueError("gf2 mode needs CNOT-only circuits")
        ma, mb = simulate_cnot_circuit(a), simulate_cnot_circuit(b)
        same = ma == mb
        return EquivalenceReport("gf2", same, 0.0 if same else 1.0,
                                 "exact matrix comparison")
    if mode == "unitary":
        if a.num_qubits > UNITARY_QUBIT_CAP:
            raise ValueError(
                f"unitary mode capped at {UNITARY_QUBIT_CAP} qubits, got {a.num_qubits}"
            )
        dev = phase_aligned_deviation(circuit_unitary(a), circuit_unitary(b))
        return EquivalenceReport("unitary", dev < UNITARY_TOL, dev,
                                 f"global-phase-aligned deviation {dev:.3e}")
    raise ValueError(f"unknown mode {mode!r}")


def edge_legal(c: Circuit, g: ConnectivityGraph) -> bool:
    """True when every CNOT of the circuit lies on an edge of the graph."""
    arcs = g._arcs
    # One test per distinct wire tuple; only a CNOT has two wires.
    return all(q in arcs for q in set(map(attrgetter("qubits"), c.gates)) if len(q) == 2)
