import random

import pytest

from steinersynth import (
    BinaryMatrix,
    PhasePolynomial,
    SumOverPaths,
    build_parity_matrix,
    extract_sum_over_paths,
    random_connected_graph,
    simulate_cnot_circuit,
    synth_parity_network_constrained,
    synthesize_cnot_rz,
)
from steinersynth.bench import random_phase_instance
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.graphs import complete_graph, line_graph
from steinersynth.phase_synth import parity_from_bits, parity_to_bits
from steinersynth.verify import edge_legal


def A(num, den=8):
    return Angle(num, den)


# Four-qubit reference: five rotation placements over an entangling skeleton
# whose sum-over-paths form is known in closed form.
REFERENCE_GATES = (
    rz(A(1), 0),          # on x1
    rz(A(1), 1),          # on x2
    cnot(2, 3),           # wire 3 now x3+x4
    rz(A(1), 3),          # on x3+x4
    rz(A(1), 1),          # on x2 again (merges)
    cnot(0, 1),           # wire 1 now x1+x2
    cnot(1, 2),           # wire 2 now x1+x2+x3
    rz(A(1), 2),          # on x1+x2+x3
    cnot(2, 3),           # wire 3 now x1+x2+x4
    rz(A(1), 3),          # on x1+x2+x4
    cnot(1, 0),           # wire 0 now x2
)

REFERENCE_PHASE = {
    0b0001: A(1),                  # x1
    0b0010: A(2),                  # x2 (two eighth turns merged)
    0b0111: A(1),                  # x1+x2+x3
    0b1100: A(1),                  # x3+x4
    0b1011: A(1),                  # x1+x2+x4
}

REFERENCE_LINEAR = BinaryMatrix.from_rows(
    [[0, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1]]
)


def test_extract_reference_circuit():
    sop = extract_sum_over_paths(Circuit(4, REFERENCE_GATES))
    assert sop.phase.terms == REFERENCE_PHASE
    assert sop.linear == REFERENCE_LINEAR


def test_extract_empty_circuit():
    sop = extract_sum_over_paths(Circuit(3))
    assert sop.phase.terms == {}
    assert sop.linear.is_identity()


def test_extract_merges_same_parity():
    c = Circuit(1, (rz(A(1), 0), rz(A(1), 0)))
    sop = extract_sum_over_paths(c)
    assert sop.phase.terms == {0b1: Angle(1, 4)}


def test_extract_drops_cancelled_terms():
    c = Circuit(1, (rz(A(1), 0), rz(A(7), 0)))
    assert extract_sum_over_paths(c).phase.terms == {}


def test_extract_rejects_h():
    with pytest.raises(ValueError):
        extract_sum_over_paths(Circuit(1, (h(0),)))


def test_parity_matrix_columns():
    sop = extract_sum_over_paths(Circuit(4, REFERENCE_GATES))
    cols = build_parity_matrix(sop)
    assert set(cols) == set(REFERENCE_PHASE)
    # lexicographic in bitstring form, qubit 0 first
    bitstrings = [parity_to_bits(m, 4) for m in cols]
    assert bitstrings == sorted(bitstrings)


def test_parity_bits_roundtrip():
    assert parity_from_bits("0110") == 0b0110
    assert parity_to_bits(0b0110, 4) == "0110"


def test_empty_support_synthesizes_empty():
    sop = SumOverPaths(PhasePolynomial(3, {}), BinaryMatrix.identity(3))
    circ, linear = synth_parity_network_constrained(sop, line_graph(3))
    assert len(circ) == 0
    assert linear.is_identity()


def test_single_pair_parity_on_line2():
    sop = SumOverPaths(
        PhasePolynomial(2, {0b11: Angle(1, 8)}), BinaryMatrix.identity(2)
    )
    circ, linear = synth_parity_network_constrained(sop, line_graph(2))
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["cnot", "rz"]
    assert circ.gates[1].target == circ.gates[0].target
    assert linear == simulate_cnot_circuit(Circuit(2, (circ.gates[0],)))


def test_parity_coverage_replay():
    # Every support parity must appear on the wire carrying its rotation.
    rng = random.Random(9)
    for trial in range(40):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng.uniform(0.3, 1.0), trial)
        sop = random_phase_instance(n, rng.randint(1, 2 * n), trial)
        circ, _ = synth_parity_network_constrained(sop, g)
        wires = [1 << q for q in range(n)]
        seen = {}
        for gate in circ.gates:
            if gate.kind == "cnot":
                wires[gate.target] ^= wires[gate.control]
            else:
                seen[wires[gate.target]] = seen.get(wires[gate.target], Angle(0)) + gate.angle
        seen = {m: a for m, a in seen.items() if not a.is_zero}
        assert seen == sop.phase.terms
        assert edge_legal(circ, g)


def test_synthesize_cnot_rz_identity_reduction(demo6_graph, demo6_matrix):
    # With no phase terms the synthesis is exactly constrained CNOT synthesis.
    sop = SumOverPaths(PhasePolynomial(6, {}), demo6_matrix)
    circ, _ = synthesize_cnot_rz(sop, demo6_graph)
    assert circ.count("rz") == 0
    assert simulate_cnot_circuit(circ) == demo6_matrix
    assert edge_legal(circ, demo6_graph)


def test_reference_roundtrip_on_line():
    src = extract_sum_over_paths(Circuit(4, REFERENCE_GATES))
    circ, _ = synthesize_cnot_rz(src, line_graph(4))
    back = extract_sum_over_paths(circ)
    assert back.phase == src.phase
    assert back.linear == src.linear
    assert edge_legal(circ, line_graph(4))


def test_roundtrip_random_instances():
    rng = random.Random(21)
    for trial in range(60):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.uniform(0.15, 1.0), trial + 7)
        sop = random_phase_instance(n, rng.randint(0, 2 * n), trial)
        circ, _ = synthesize_cnot_rz(sop, g)
        back = extract_sum_over_paths(circ)
        assert back.phase == sop.phase
        assert back.linear == sop.linear
        assert edge_legal(circ, g)


def test_angles_stay_exact():
    # A third of a turn is not representable in floats; roundtrip must hold.
    sop = SumOverPaths(
        PhasePolynomial(3, {0b101: Angle(1, 3), 0b011: Angle(1, 7)}),
        BinaryMatrix.identity(3),
    )
    circ, _ = synthesize_cnot_rz(sop, line_graph(3))
    back = extract_sum_over_paths(circ)
    assert back.phase.terms == sop.phase.terms


def test_full_connectivity_matches_complete_graph():
    sop = random_phase_instance(6, 8, 77)
    c1, _ = synthesize_cnot_rz(sop, complete_graph(6))
    back = extract_sum_over_paths(c1)
    assert back.phase == sop.phase and back.linear == sop.linear
