"""The in-place unitary simulator and the one dispatcher behind `certify`
and `verify_equivalence`."""

import random

import numpy as np
import pytest

from steinersynth.bench import random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.gf2 import random_invertible, simulate_cnot_circuit
from steinersynth.graphs import line_graph
from steinersynth.optimizer import cancel_pass
from steinersynth.phase_synth import extract_sum_over_paths
from steinersynth.unitary import UNITARY_QUBIT_CAP, apply_circuit, circuit_unitary
from steinersynth.universal import merge_delete_h, route_universal
from steinersynth.verify import EquivalenceReport, _path_sum, certify, verify_equivalence

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


def half_turn_identity(n: int) -> Circuit:
    """RZ(1/2) on wire 0, on wire 1 and on the parity 0^1: the identity,
    whose path sum is not the empty circuit's."""
    half = Angle(1, 2)
    return Circuit(n, (rz(half, 0), rz(half, 1), cnot(0, 1), rz(half, 1), cnot(0, 1)))


def test_auto_mode_raises_above_the_cap_unless_cnot_only():
    # Above the cap, a pair that is not CNOT-only and that the path sums
    # do not prove equal has no exact check.
    n = UNITARY_QUBIT_CAP + 1
    a = half_turn_identity(n)
    with pytest.raises(ValueError, match="capped at"):
        verify_equivalence(a, Circuit(n))
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
    # A pair of circuits of one width is proven by path sum; with the
    # widths apart no path sum proves it, so it falls through to the dense
    # check up to the cap and to the edges above.
    mixed = (cnot(0, 1), h(1), rz(Angle(1, 8), 0))
    for n in (3, UNITARY_QUBIT_CAP, UNITARY_QUBIT_CAP + 1):
        mode = "unitary" if n <= UNITARY_QUBIT_CAP else "edges"
        tasks = [
            (simulate_cnot_circuit(Circuit(n, (cnot(0, 1),))), (cnot(0, 1),), "gf2", "gf2"),
            (extract_sum_over_paths(Circuit(n, phase_gates)), phase_gates, "sum-over-paths",
             "sum-over-paths"),
            (Circuit(n, (cnot(0, 1),)), (cnot(0, 1),), "gf2", "gf2"),
            (Circuit(n, mixed), mixed, "pathsum", mode),
        ]
        for task, gates, want, other in tasks:
            assert certify(task, Circuit(n, gates), g) == (want, True), (n, want)
            assert certify(task, Circuit(n + delta, gates), g) == (other, False), (n, other)


def test_path_sums_prove_cleaned_circuits_and_only_equal_ones():
    # Heavy S/T/H mixes up to 6 wires: every pair the path sums prove is
    # unitary-equal, most cleaned and H-reduced copies are proven against
    # the input itself, and no single-gate deletion is proven.
    rng = random.Random(12)
    proven = 0
    for trial in range(120):
        n = rng.randint(1, 6)
        c = random_circuit(n, 40, 500 + trial)
        cleaned = cancel_pass(merge_delete_h(c))
        rep = verify_equivalence(c, cleaned)
        assert rep.equivalent, trial
        proven += rep.mode == "pathsum"
        for _ in range(3):
            if not len(cleaned):
                break
            k = rng.randrange(len(cleaned))
            mutant = Circuit(n, cleaned.gates[:k] + cleaned.gates[k + 1:])
            if _path_sum(mutant) == _path_sum(c):
                assert verify_equivalence(c, mutant, "unitary").equivalent, trial
    assert proven >= 110


def test_the_omega_rule_proves_an_s_sandwich():
    # H·S·H = Sdg·H·Sdg and H·Sdg·H = S·H·S, up to a global phase, inside
    # a larger circuit too.
    s, sdg = Angle(1, 4), Angle(3, 4)
    for a, b in ((s, sdg), (sdg, s)):
        left = Circuit(2, (cnot(0, 1), h(1), rz(a, 1), h(1), cnot(1, 0)))
        right = Circuit(2, (cnot(0, 1), rz(b, 1), h(1), rz(b, 1), cnot(1, 0)))
        rep = verify_equivalence(left, right, "pathsum")
        assert rep == EquivalenceReport("pathsum", True, 0.0)
    t_sandwich = Circuit(1, (h(0), rz(Angle(1, 8), 0), h(0)))
    with pytest.raises(ValueError, match="^not proven"):
        verify_equivalence(t_sandwich, Circuit(1, (rz(Angle(7, 8), 0), h(0), rz(Angle(7, 8), 0))),
                           "pathsum")


def test_an_unproven_pair_falls_through_and_is_never_a_disproof():
    # The half-turn identity is unitary-equal to the empty circuit, but its
    # path sum differs: auto mode falls through to the dense check up to
    # the cap, and certify to the edges above it; pathsum mode says "not
    # proven" instead of reporting the pair unequal.
    g = line_graph(UNITARY_QUBIT_CAP + 1)
    for n in (2, UNITARY_QUBIT_CAP, UNITARY_QUBIT_CAP + 1):
        a, empty = half_turn_identity(n), Circuit(n)
        with pytest.raises(ValueError, match="^not proven: the path sums differ;"):
            verify_equivalence(a, empty, "pathsum")
        if n <= UNITARY_QUBIT_CAP:
            rep = verify_equivalence(a, empty)
            assert (rep.mode, rep.equivalent) == ("unitary", True)
            assert certify(a, empty, line_graph(n)) == ("unitary", True)
        else:
            assert certify(a, empty, g) == ("edges", True)
    # A path-sum proof at any width.
    n = UNITARY_QUBIT_CAP + 8
    c = random_circuit(n, 300, 7)
    rep = verify_equivalence(c, cancel_pass(merge_delete_h(c)))
    assert rep == EquivalenceReport("pathsum", True, 0.0)


def swap_ladder(k: int) -> tuple:
    """CNOTs that carry wire 0's state to wire k, one SWAP per step."""
    return tuple(g for q in range(k) for g in (cnot(q, q + 1), cnot(q + 1, q), cnot(q, q + 1)))


def test_path_sums_prove_an_h_run_on_the_wire_its_qubit_was_moved_to():
    # H on wire 0 against a SWAP ladder to wire k, H there and the ladder
    # back: the two H variables are named by the masks they read, not by
    # their wires.  At 2 wires, at the cap, and above it.
    for n in (2, UNITARY_QUBIT_CAP, UNITARY_QUBIT_CAP + 4):
        k = n - 1
        ladder = swap_ladder(k)
        before, after = random_circuit(n, 30, n), random_circuit(n, 30, 100 + n)
        left = Circuit(n, before.gates + (h(0),) + after.gates)
        right = Circuit(n, before.gates + ladder + (h(k),) + ladder[::-1] + after.gates)
        rep = verify_equivalence(left, right, "pathsum")
        assert rep == EquivalenceReport("pathsum", True, 0.0), n
        if n <= UNITARY_QUBIT_CAP:
            assert verify_equivalence(left, right, "unitary").equivalent, n


def test_a_route_with_one_h_moved_to_another_wire_is_not_proven():
    # Renaming the H variables by the masks they read must not let an H on
    # the wrong wire through: each mutant is "not proven" and, at up to 8
    # wires, unitary-unequal to the input.
    rng = random.Random(29)
    probs = {"cnot": 0.7, "t": 0.08, "s": 0.04, "sdg": 0.02, "tdg": 0.04, "h": 0.12}
    for trial in range(12):
        n = rng.randint(3, UNITARY_QUBIT_CAP)
        c = random_universal_circuit(n, 120, probs, 40 + trial)
        routed, _ = route_universal(c, line_graph(n))
        assert verify_equivalence(c, routed, "pathsum").equivalent, trial
        at = [k for k, gate in enumerate(routed.gates) if gate.kind == "h"]
        k = rng.choice(at)
        wire = rng.choice([q for q in range(n) if q != routed.gates[k].target])
        gates = list(routed.gates)
        gates[k] = h(wire)
        mutant = Circuit(n, tuple(gates))
        with pytest.raises(ValueError, match="^not proven"):
            verify_equivalence(c, mutant, "pathsum")
        assert not verify_equivalence(c, mutant, "unitary").equivalent, trial
