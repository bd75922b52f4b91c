"""The in-place unitary simulator and the one dispatcher behind `certify`
and `verify_equivalence`."""

import random

import numpy as np
import pytest

from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.gf2 import random_invertible, simulate_cnot_circuit
from steinersynth.graphs import line_graph
from steinersynth.phase_synth import extract_sum_over_paths
from steinersynth.unitary import UNITARY_QUBIT_CAP, apply_circuit, circuit_unitary
from steinersynth.verify import certify, verify_equivalence

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def reference_unitary(c: Circuit) -> np.ndarray:
    """Per-gate left multiplication: tensordot for a 1-qubit gate, an index
    permutation for a CNOT."""
    n = c.num_qubits
    u = np.eye(2**n, dtype=complex)
    idx = np.arange(2**n)
    for g in c.gates:
        if g.kind == "cnot":
            flipped = np.where((idx >> g.control) & 1 == 1, idx ^ (1 << g.target), idx)
            out = np.empty_like(u)
            out[flipped] = u[idx]
            u = out
            continue
        if g.kind == "h":
            mat = _H
        else:
            mat = np.diag([1, np.exp(2j * np.pi * g.angle.turns())])
        axis = n - 1 - g.target  # bit q is the low-order index bit
        t = np.tensordot(mat, u.reshape([2] * n + [2**n]), axes=([1], [axis]))
        u = np.moveaxis(t, 0, axis).reshape(2**n, 2**n)
    return u


def random_circuit(n: int, gate_count: int, seed: int) -> Circuit:
    """Random {CNOT, RZ, H} circuit; RZ angles are k/16 turns."""
    rng = random.Random(seed)
    gates = []
    for _ in range(gate_count):
        kind = rng.choice(("cnot", "rz", "h") if n > 1 else ("rz", "h"))
        if kind == "cnot":
            gates.append(cnot(*rng.sample(range(n), 2)))
        elif kind == "rz":
            gates.append(rz(Angle(rng.randrange(1, 16), 16), rng.randrange(n)))
        else:
            gates.append(h(rng.randrange(n)))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", range(1, 8))
def test_circuit_unitary_matches_the_per_gate_reference(n):
    for seed in range(4):
        c = random_circuit(n, 12 * n, 100 * n + seed)
        assert np.max(np.abs(circuit_unitary(c) - reference_unitary(c))) < 1e-12


def test_apply_circuit_acts_on_every_column_of_a_block():
    c = random_circuit(4, 40, 3)
    rng = np.random.default_rng(5)
    block = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    want = reference_unitary(c) @ block
    apply_circuit(block, c)
    assert np.max(np.abs(block - want)) < 1e-12
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_circuit(np.eye(16, dtype=complex)[:, ::2], c)


def test_circuit_unitary_raises_above_the_cap():
    assert circuit_unitary(Circuit(UNITARY_QUBIT_CAP)).shape == (2**UNITARY_QUBIT_CAP,) * 2
    with pytest.raises(ValueError, match="cap"):
        circuit_unitary(Circuit(UNITARY_QUBIT_CAP + 1))


def test_equal_unitaries_with_different_phase_polynomials_are_equivalent():
    # RZ(1/2) on wire 0, on wire 1 and on the parity 0^1 is the identity, yet
    # its sum-over-paths differs from the empty circuit's: a pair of circuits
    # must be compared as unitaries, not by sum-over-paths.
    half = Angle(1, 2)
    c = Circuit(2, (rz(half, 0), rz(half, 1), cnot(0, 1), rz(half, 1), cnot(0, 1)))
    empty = Circuit(2)
    assert extract_sum_over_paths(c) != extract_sum_over_paths(empty)
    rep = verify_equivalence(c, empty)
    assert (rep.mode, rep.equivalent) == ("unitary", True)


def test_auto_mode_checks_cnot_only_pairs_over_gf2_at_any_width():
    n = UNITARY_QUBIT_CAP + 4
    a = Circuit(n, (cnot(0, 1), cnot(1, 2), cnot(0, 1)))
    b = Circuit(n, (cnot(1, 2), cnot(0, 2)))
    rep = verify_equivalence(a, b)
    assert (rep.mode, rep.equivalent) == ("gf2", True)
    rep = verify_equivalence(a, b.extended((cnot(0, 2),)))
    assert (rep.mode, rep.equivalent) == ("gf2", False)


def test_auto_mode_raises_above_the_cap_unless_cnot_only():
    n = UNITARY_QUBIT_CAP + 1
    a = Circuit(n, (cnot(0, 1), h(2)))
    with pytest.raises(ValueError, match="capped at"):
        verify_equivalence(a, a)
    with pytest.raises(ValueError, match="unknown mode"):
        verify_equivalence(Circuit(2), Circuit(2), "sum-over-paths")


def test_certify_fails_a_circuit_outside_the_task_gate_set():
    # A matrix task is checked over GF(2) and a sum-over-paths task by its
    # phase polynomial; an H gate fails either certificate instead of
    # raising, even where the unitary is right (H twice is the identity).
    g = line_graph(3)
    assert certify(random_invertible(3, 1), Circuit(3, (h(0),)), g) == ("gf2", False)
    circuit = Circuit(3, (rz(Angle(1, 8), 0), cnot(0, 1)))
    task = extract_sum_over_paths(circuit)
    assert certify(task, circuit, g) == ("sum-over-paths", True)
    assert certify(task, circuit.extended((h(2), h(2))), g) == ("sum-over-paths", False)
    # Forcing gf2 on a pair with an H is still an input error.
    with pytest.raises(ValueError, match="CNOT-only"):
        verify_equivalence(Circuit(3, (h(0),)), Circuit(3, (h(0),)), "gf2")


@pytest.mark.parametrize("delta", [-1, 1], ids=["narrower", "wider"])
def test_certify_fails_a_circuit_of_another_width(delta):
    # The task's own gates on one wire fewer or more fail in the mode of
    # the task's kind, and nothing raises: no dense unitary is built for a
    # pair whose widths differ.  The same gates at the task's width pass.
    g = line_graph(UNITARY_QUBIT_CAP + 2)
    phase_gates = (rz(Angle(1, 8), 0), cnot(0, 1))
    mixed = (cnot(0, 1), h(1), rz(Angle(1, 8), 0))
    for n in (3, UNITARY_QUBIT_CAP, UNITARY_QUBIT_CAP + 1):
        mode = "unitary" if n <= UNITARY_QUBIT_CAP else "edges"
        tasks = [
            (simulate_cnot_circuit(Circuit(n, (cnot(0, 1),))), (cnot(0, 1),), "gf2"),
            (extract_sum_over_paths(Circuit(n, phase_gates)), phase_gates, "sum-over-paths"),
            (Circuit(n, (cnot(0, 1),)), (cnot(0, 1),), "gf2"),
            (Circuit(n, mixed), mixed, mode),
        ]
        for task, gates, want in tasks:
            assert certify(task, Circuit(n, gates), g) == (want, True), (n, want)
            assert certify(task, Circuit(n + delta, gates), g) == (want, False), (n, want)
