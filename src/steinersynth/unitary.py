"""Dense unitary simulation for equivalence checking (small wire counts).

Conventions: basis index bit q holds the value of qubit q; RZ(theta turns)
acts as diag(1, e^{2*pi*i*theta}) so that a circuit's phase contributions
line up with its phase-polynomial description.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate

UNITARY_QUBIT_CAP = 8

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _apply_single(u: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """Left-multiply a 1-qubit gate on wire q into the 2^n x 2^n matrix."""
    t = u.reshape([2] * n + [2**n])
    axis = n - 1 - q  # bit q is the low-order index bit
    t = np.tensordot(mat, t, axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return t.reshape(2**n, 2**n)


def _apply_cnot(u: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    idx = np.arange(dim)
    flipped = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    out = np.empty_like(u)
    out[flipped] = u[idx]
    return out


def apply_gate(u: np.ndarray, g: Gate, n: int) -> np.ndarray:
    if g.kind == "cnot":
        return _apply_cnot(u, g.control, g.target, n)
    if g.kind == "h":
        return _apply_single(u, _H, g.target, n)
    if g.kind == "rz":
        phase = np.exp(2j * np.pi * g.angle.turns())
        mat = np.array([[1, 0], [0, phase]], dtype=complex)
        return _apply_single(u, mat, g.target, n)
    raise ValueError(f"cannot simulate gate {g.kind!r}")


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit; n capped at UNITARY_QUBIT_CAP."""
    if c.num_qubits > UNITARY_QUBIT_CAP:
        raise ValueError(
            f"{c.num_qubits} qubits exceeds the dense simulation cap "
            f"({UNITARY_QUBIT_CAP})"
        )
    u = np.eye(2**c.num_qubits, dtype=complex)
    for g in c.gates:
        u = apply_gate(u, g, c.num_qubits)
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
