"""Equivalence checks: `certify` and `verify_equivalence` share `_check`.

A matrix task and a pair of CNOT-only circuits are checked over GF(2), a
`SumOverPaths` task by its sum-over-paths, all at any width.  Any other
pair of circuits is first compared by path sum (`_path_sum`), at any
width; a pair the path sums do not prove equal is compared as dense
unitaries up to UNITARY_QUBIT_CAP wires.  The path-sum check is sound but
not complete: RZ(1/2) on wires 0, 1 and 0^1 is the identity, but its path
sum is not the empty circuit's.  So a failed proof means "not proven",
never "not equivalent".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .circuits import NAMED_ANGLES, Circuit
from .gf2 import _bits, simulate_cnot_circuit
from .graphs import ConnectivityGraph
from .phase_synth import SumOverPaths, _read_path_sum, extract_sum_over_paths
from .unitary import UNITARY_QUBIT_CAP, circuit_unitary, phase_aligned_deviation

UNITARY_TOL = 1e-9
_QUARTERS = (NAMED_ANGLES["s"], NAMED_ANGLES["sdg"])


@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    equivalent: bool
    deviation: float


class Certificate(NamedTuple):
    # "gf2", "sum-over-paths", "pathsum", "unitary" or "edges" (edge
    # legality only)
    mode: str
    ok: bool


def _path_sum(c: Circuit) -> tuple:
    """The normal form of a {CNOT, RZ, H} circuit's path sum (Amy,
    arXiv:1805.06908) under the HH and ω rules: two circuits with equal
    normal forms have equal unitaries, up to a global phase.

    The variables are the n inputs (bits 0..n-1) and one per H gate
    (`phase_synth._read_path_sum`): each wire ends as a mask over them,
    each RZ adds its angle to the term of its wire's mask, and each H
    reads a mask L and starts a variable y, with the phase (-1)^(L·y).
    Both rules sum out a variable y1 that is on no output wire and is read
    by exactly one H, whose mask is y1 alone and whose own variable is y2;
    L1 is the mask y1 was read from.

    - HH: y1 is in no term.  The sum forces y2 = L1, so both H records go
      and L1 replaces y2 in every mask.
    - ω: the one term holding y1 is y1 alone, with an S or Sdg angle a.
      The sum leaves the phase -a on L1 xor y2, which is -a on L1, -a on
      y2 and (-1)^(L1·y2): y2 now reads L1, as in H·S·H = Sdg·H·Sdg up to
      a global phase, the rewrite `merge_delete_h` makes.

    The rules apply until neither does.  A rule changes only the masks
    holding the variables of L1 and y2, so within one sweep those wait
    for the next.  Last, the surviving H variables are renamed by what
    they read, not by their wires, so that a route that runs an H on
    another wire, where its qubit sits alone, or a cleanup that removed an
    H pair leaves the same form: repeatedly, among the unnamed variables
    whose read mask holds only named ones (the inputs are named as they
    are), the one whose renamed mask is least, ties to the lower index,
    takes the next name.  Each variable reads only earlier ones, so every
    variable gets a name, and renaming summed variables is always sound.
    """
    n = c.num_qubits
    wires = [1 << q for q in range(n)]
    read, hs = _read_path_sum(c.gates, wires)
    terms = {mask: angle for mask, angle in read.items() if not angle.is_zero}
    reads = {1 << (n + k): mask for k, (_, mask) in enumerate(hs)}  # variable -> mask it read

    def add(mask: int, angle) -> None:
        total = terms.pop(mask, None)
        total = angle if total is None else total + angle
        if mask and not total.is_zero:
            terms[mask] = total

    changed = True
    while changed:
        changed = False
        on_wires = in_terms = waiting = 0
        for mask in wires:
            on_wires |= mask
        for mask in terms:
            in_terms |= mask
        for y1 in list(reads):
            if y1 & (on_wires | waiting) or y1 not in reads:
                continue
            readers = [y for y, mask in reads.items() if mask & y1]
            if len(readers) != 1 or reads[readers[0]] != y1:
                continue
            y2 = readers[0]
            if y1 & in_terms:  # the ω rule
                if [mask for mask in terms if mask & y1] != [y1] or terms[y1] not in _QUARTERS:
                    continue
                l1 = reads.pop(y1)
                reads[y2] = l1
                turn = -terms.pop(y1)
                add(l1, turn)
                add(y2, turn)
                waiting |= l1 | y2
            else:  # the HH rule
                l1 = reads.pop(y1)
                del reads[y2]
                flip = y2 | l1
                wires = [mask ^ flip if mask & y2 else mask for mask in wires]
                reads = {y: mask ^ flip if mask & y2 else mask for y, mask in reads.items()}
                for mask in [mask for mask in terms if mask & y2]:
                    add(mask ^ flip, terms.pop(mask))
                waiting |= l1
            changed = True

    low = (1 << n) - 1
    name: dict[int, int] = {}

    def rename(mask: int) -> int:
        out = mask & low
        for k in _bits(mask >> n):
            out |= name[1 << (n + k)]
        return out

    # A variable's renamed mask is fixed once it reads only named ones:
    # `unnamed[y]` counts the unnamed variables y reads, and `readers[x]`
    # lists the variables that read x.
    unnamed = {y: (mask >> n).bit_count() for y, mask in reads.items()}
    readers: dict[int, list[int]] = {y: [] for y in reads}
    for y, mask in reads.items():
        for k in _bits(mask >> n):
            readers[1 << (n + k)].append(y)
    ready = [(mask, y) for y, mask in reads.items() if not unnamed[y]]
    heapq.heapify(ready)
    while ready:
        _, y = heapq.heappop(ready)
        name[y] = 1 << (n + len(name))
        for reader in readers[y]:
            unnamed[reader] -= 1
            if not unnamed[reader]:
                heapq.heappush(ready, (rename(reads[reader]), reader))

    return (
        tuple(map(rename, wires)),
        frozenset((rename(mask), angle) for mask, angle in terms.items()),
        frozenset((name[y], rename(mask)) for y, mask in reads.items()),
    )


def _check(task, circuit: Circuit, mode: str = "auto") -> EquivalenceReport | None:
    """Check the circuit against a matrix, sum-over-paths or circuit task;
    a circuit outside the task's gate set fails.  "gf2", "pathsum" or
    "unitary" forces that check on a pair of circuits.  "auto" checks a
    pair that is not CNOT-only by path sum, then, unless that proves it,
    as unitaries up to the cap.  Returns None when no check gives a
    verdict: a pair the path sums do not prove equal, in mode "pathsum" or
    in "auto" above the cap."""
    if isinstance(task, SumOverPaths):
        same = circuit.count("h") == 0 and extract_sum_over_paths(circuit) == task
        return EquivalenceReport("sum-over-paths", same, float(not same))
    if isinstance(task, Circuit):
        cnot_only = task.is_cnot_only() and circuit.is_cnot_only()
        if mode == "pathsum" or (mode == "auto" and not cnot_only):
            if circuit.num_qubits == task.num_qubits and _path_sum(circuit) == _path_sum(task):
                return EquivalenceReport("pathsum", True, 0.0)
            if mode == "pathsum" or task.num_qubits > UNITARY_QUBIT_CAP:
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
    when both circuits are CNOT-only, else "pathsum" when the path sums
    prove it, "unitary" for a task of up to UNITARY_QUBIT_CAP wires and
    "edges" above.  A certificate in mode "edges" checked the edges
    alone: it never reports the circuit as proven."""
    report = _check(task, circuit)
    if report is None:
        mode, same = "edges", circuit.num_qubits == task.num_qubits
    else:
        mode, same = report.mode, report.equivalent
    return Certificate(mode, edge_legal(circuit, graph) and same)


def verify_equivalence(a: Circuit, b: Circuit, mode: str = "auto") -> EquivalenceReport:
    """Check that two circuits implement the same operation.

    gf2 mode requires CNOT-only circuits and compares matrices exactly;
    pathsum mode compares path-sum normal forms at any width; unitary mode
    compares dense matrices up to global phase.  Auto mode tries gf2 for a
    CNOT-only pair, else pathsum, then unitary up to the cap.  A pair no
    check proves raises ValueError saying "not proven": a path-sum
    mismatch does not show that the circuits differ.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("circuits act on different wire counts")
    report = _check(a, b, mode)
    if report is None:
        cap = "" if mode == "pathsum" else (
            f", and unitary mode is capped at {UNITARY_QUBIT_CAP} qubits, got {a.num_qubits}")
        raise ValueError(
            f"not proven: the path sums differ{cap}; that does not show the circuits differ")
    return report


def edge_legal(c: Circuit, g: ConnectivityGraph) -> bool:
    """True when every CNOT of the circuit lies on an edge of the graph."""
    arcs = g._arcs
    # One test per distinct wire tuple; only a CNOT has two wires.
    return all(q in arcs for q in set(map(attrgetter("qubits"), c.gates)) if len(q) == 2)
