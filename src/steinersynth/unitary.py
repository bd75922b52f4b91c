"""Dense unitary simulation for equivalence checking (small wire counts).

Conventions: basis index bit q holds the value of qubit q; RZ(theta turns)
acts as diag(1, e^{2*pi*i*theta}) so that a circuit's phase contributions
line up with its phase-polynomial description.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit

# The one width cap of the equivalence checks.  Comparing a 1000-gate
# circuit with its routed output takes 0.03 s at 6 wires, 0.07 s at 7 and
# 0.27 s at 8 (2-vCPU Xeon).
UNITARY_QUBIT_CAP = 8

_R = 1 / np.sqrt(2.0)


def apply_circuit(block: np.ndarray, c: Circuit) -> None:
    """Left-multiply the circuit's unitary into a C-contiguous complex
    (2^n, k) block in place, by slicing: a CNOT swaps the two slices where
    its control is 1, an RZ scales one slice, an H mixes its wire's two."""
    if not block.flags.c_contiguous:
        raise ValueError("the block must be C-contiguous")
    n = c.num_qubits
    v = block.reshape((2,) * n + (-1,))  # a view; bit q is axis n - 1 - q

    def part(bits: dict[int, int]) -> np.ndarray:  # rows whose wires hold these bits
        idx = [slice(None)] * (n + 1)
        for q, bit in bits.items():
            idx[n - 1 - q] = bit
        return v[tuple(idx)]

    for g in c.gates:
        t = g.target
        if g.kind == "cnot":
            lo, hi = part({g.control: 1, t: 0}), part({g.control: 1, t: 1})
            lo[...], hi[...] = hi, lo.copy()
        elif g.kind == "rz":
            part({t: 1})[...] *= np.exp(2j * np.pi * g.angle.turns())
        elif g.kind == "h":
            lo, hi = part({t: 0}), part({t: 1})
            lo[...], hi[...] = (lo + hi) * _R, (lo - hi) * _R
        else:
            raise ValueError(f"cannot simulate gate {g.kind!r}")


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit; n capped at UNITARY_QUBIT_CAP."""
    if c.num_qubits > UNITARY_QUBIT_CAP:
        raise ValueError(f"{c.num_qubits} qubits is above the cap of {UNITARY_QUBIT_CAP}")
    u = np.eye(2**c.num_qubits, dtype=complex)
    apply_circuit(u, c)
    return u


def phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-modulus elementwise deviation after aligning global phase."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    flat_a, flat_b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(flat_a)))
    if abs(flat_a[k]) < 1e-12:
        return float(np.max(np.abs(a - b)))
    lam = flat_b[k] / flat_a[k]
    mag = abs(lam)
    if mag < 1e-12:
        return float(np.max(np.abs(a - b)))
    lam /= mag  # keep it a pure phase
    return float(np.max(np.abs(b - lam * a)))
