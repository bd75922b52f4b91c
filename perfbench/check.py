"""Independent output checks, written without steinersynth.

Outputs are read back from the program's emitted circuit text, so a check
never trusts the program's in-memory objects or its own verifier:

* CNOT circuits: GF(2) simulation compared with the input matrix.
* CNOT+RZ circuits: sum-over-paths (phase polynomial and linear part)
  compared with the input instance, with exact Fraction angles.
* {CNOT, RZ, H} circuits: both circuits applied to one seeded random
  statevector, each H-free run as a basis permutation times a diagonal
  phase, then compared up to global phase.
* Every circuit: each CNOT must lie on the benchmark's own edge set.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

STATE_TOL = 1e-9


def parse_circuit(text: str) -> tuple[int, list[tuple]]:
    """Parse emitted circuit text into (wire count, gate tuples)."""
    n = None
    gates: list[tuple] = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        op = parts[0]
        if op == "qubits":
            n = int(parts[1])
        elif op == "cnot":
            gates.append(("cnot", int(parts[1]), int(parts[2])))
        elif op == "rz":
            gates.append(("rz", Fraction(parts[1]) % 1, int(parts[2])))
        elif op == "h":
            gates.append(("h", int(parts[1])))
        else:
            raise ValueError(f"unknown gate {op!r}")
    if n is None:
        raise ValueError("missing qubits header")
    for g in gates:
        if not all(0 <= q < n for q in g[1:] if isinstance(q, int)):
            raise ValueError(f"wire out of range in {g}")
    return n, gates


def gf2_simulate(n: int, gates) -> tuple[int, ...]:
    """Packed rows of the linear map: row q is the input parity on wire q."""
    wires = [1 << q for q in range(n)]
    for g in gates:
        if g[0] != "cnot":
            raise ValueError(f"{g[0]} gate in a CNOT circuit")
        wires[g[2]] ^= wires[g[1]]
    return tuple(wires)


def sum_over_paths(n: int, gates) -> tuple[dict[int, Fraction], tuple[int, ...]]:
    """(phase polynomial, linear part) of a CNOT+RZ gate list."""
    wires = [1 << q for q in range(n)]
    terms: dict[int, Fraction] = {}
    for g in gates:
        if g[0] == "cnot":
            wires[g[2]] ^= wires[g[1]]
        elif g[0] == "rz":
            mask = wires[g[2]]
            terms[mask] = (terms.get(mask, 0) + g[1]) % 1
        else:
            raise ValueError(f"{g[0]} gate in a CNOT+RZ circuit")
    return {m: a for m, a in terms.items() if a}, tuple(wires)


def edges_legal(gates, edges) -> bool:
    return all(
        (min(g[1], g[2]), max(g[1], g[2])) in edges for g in gates if g[0] == "cnot"
    )


def depth(n: int, gates) -> int:
    """Layers when gates are packed greedily to the left."""
    frontier = [0] * n
    for g in gates:
        wires = g[1:] if g[0] == "cnot" else g[-1:]
        layer = 1 + max(frontier[q] for q in wires)
        for q in wires:
            frontier[q] = layer
    return max(frontier, default=0)


def apply_circuit(state: np.ndarray, n: int, gates) -> np.ndarray:
    """Apply a gate list to a statevector (basis index bit q is wire q;
    RZ(a) is diag(1, e^{2 pi i a})).

    Each H-free run is a basis permutation times a diagonal.  The state is
    kept as phi with psi[L x] = phi[x]: a CNOT only updates the GF(2) map L
    (rows of L, and columns of L^-1), an RZ adds its angle to the parity it
    acts on, and the pending diagonal is applied before each H, which is
    then applied in the same frame.  L is applied once at the end.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=bool)
    for b in range(n):
        parity ^= ((idx >> b) & 1).astype(bool)
    rows = [1 << q for q in range(n)]  # wire q holds parity rows[q] of x
    inv_cols = [1 << q for q in range(n)]  # column q of L^-1
    pending: dict[int, Fraction] = {}
    phi = state.copy()

    def flush() -> None:
        nonlocal phi
        for mask, angle in pending.items():
            if angle % 1:
                phi = np.where(parity[idx & mask], phi * np.exp(2j * np.pi * float(angle)), phi)
        pending.clear()

    for g in gates:
        if g[0] == "cnot":
            c, t = g[1], g[2]
            rows[t] ^= rows[c]
            inv_cols[c] ^= inv_cols[t]
        elif g[0] == "rz":
            mask = rows[g[2]]
            pending[mask] = pending.get(mask, 0) + g[1]
        else:
            flush()
            q = g[1]
            swapped = phi[idx ^ inv_cols[q]]
            phi = np.where(parity[idx & rows[q]], swapped - phi, swapped + phi)
            phi *= np.sqrt(0.5)
    flush()
    dest = np.zeros_like(idx)
    for q, mask in enumerate(rows):
        dest |= parity[idx & mask].astype(np.int64) << q
    out = np.empty_like(phi)
    out[dest] = phi
    return out


def final_state(n: int, gates, seed: int) -> np.ndarray:
    """The circuit applied to a normalized random state drawn from seed."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return apply_circuit(psi / np.linalg.norm(psi), n, gates)


def same_state(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal up to a global phase."""
    return abs(np.vdot(a, b)) > 1 - STATE_TOL
