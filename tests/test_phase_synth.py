import gc
import random
import sys

import pytest

from steinersynth import (
    BinaryMatrix,
    PhasePolynomial,
    SumOverPaths,
    build_parity_matrix,
    extract_sum_over_paths,
    random_connected_graph,
    random_invertible,
    simulate_cnot_circuit,
    synth_parity_network_constrained,
    synthesize_cnot_rz,
)
from steinersynth import gf2, phase_synth, universal
from steinersynth.bench import random_phase_instance, random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.cnot_synth import _synthesize_rowcol, plan_pre_transpose
from steinersynth.gf2 import _transposed_times_inverse, invert, multiply
from steinersynth.graphs import (
    builtin_architecture,
    complete_graph,
    grid_graph,
    line_graph,
    steiner_approx,
)
from steinersynth.phase_synth import _synthesize_up_to, parity_from_bits, parity_to_bits
from steinersynth.pipeline import run
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


def test_phase_polynomial_equality_compares_fields_and_is_unhashable():
    p = PhasePolynomial(2, {0b11: Angle(1, 8), 0b01: Angle(0)})
    assert p == PhasePolynomial(2, {0b11: Angle(1, 8)})
    assert p != PhasePolynomial(3, {0b11: Angle(1, 8)})
    assert p != PhasePolynomial(2, {0b11: Angle(1, 4)})
    assert p != (2, {0b11: Angle(1, 8)}) and p != p.terms
    with pytest.raises(TypeError):
        hash(p)


def test_extract_rejects_h():
    with pytest.raises(ValueError):
        extract_sum_over_paths(Circuit(1, (h(0),)))


def test_a_sum_over_paths_carries_the_inverse_of_its_linear_part():
    # Extraction inverts the linear part only when `linear_inv` is first
    # read, and the public constructor inverts once; both give the inverse
    # read off the circuit's CNOTs.
    rng = random.Random(31)
    probs = {"cnot": 0.6, "t": 0.2, "s": 0.1, "tdg": 0.1}
    circuits = [random_universal_circuit(n, rng.randrange(1, 6 * n), probs, rng.randrange(10**6))
                for n in range(2, 21) for _ in range(3)]
    bristlecone = builtin_architecture("bristlecone72")
    circuits.append(synthesize_cnot_rz(random_phase_instance(72, 72, 5), bristlecone)[0])
    for c in circuits:
        sop = extract_sum_over_paths(c)
        assert "linear_inv" not in vars(sop)
        want = _transposed_times_inverse(BinaryMatrix.identity(c.num_qubits), c.gates).transpose()
        assert want == invert(sop.linear)
        assert sop.linear_inv == want, c.num_qubits
        assert sop.linear_inv is sop.linear_inv
        built = SumOverPaths(sop.phase, sop.linear)
        assert built.linear_inv == want and built == sop, c.num_qubits
        assert "linear_inv" not in repr(built)


def test_a_singular_linear_part_is_rejected():
    singular = BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="^linear part must be invertible$"):
        SumOverPaths(PhasePolynomial(3, {0b011: Angle(1, 8)}), singular)


def test_no_synthesizer_or_route_inverts_a_matrix(monkeypatch):
    # A sum-over-paths task inverts its linear part once, when it is built;
    # every fixup after that reads its target's inverse off CNOTs.  Nor does
    # any simulate a CNOT circuit: the parity network hands over the map it
    # applied, and the fixup's inverse is that map times the task's inverse.
    tokyo = builtin_architecture("tokyo20")
    task = random_phase_instance(20, 20, 7)
    probs = {"cnot": 0.8, "s": 0.04, "t": 0.03, "tdg": 0.03, "h": 0.1}
    carried = random_universal_circuit(9, 120, probs, 1), grid_graph(3, 3)
    fallback = random_universal_circuit(8, 60, probs, 2), complete_graph(8)
    # On K8 the carry route has more CNOTs than the templates, so the
    # template expansion is returned in its place.
    reduced = universal.merge_delete_h(fallback[0])
    carry = universal._route(universal.partition_segments(reduced), fallback[1])
    assert carry.cnot_count > universal._ladder_cnots(reduced.gates, fallback[1])

    def outputs():
        return [
            synthesize_cnot_rz(task, tokyo)[0],
            _synthesize_up_to(task, tokyo, frozenset({0, 5, 11})),
            universal.route_universal(*carried)[0],
            universal.route_universal(*fallback)[0],
        ]

    want = outputs()

    def gauss_jordan(*args, **kwargs):
        raise AssertionError("a Gauss-Jordan pass ran")

    def simulation(*args, **kwargs):
        raise AssertionError("a CNOT circuit was simulated")

    monkeypatch.setattr(gf2, "_eliminate", gauss_jordan)
    # Every module that imported the simulation binds it under its own name.
    original = gf2.simulate_cnot_circuit
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "steinersynth":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, simulation)
    assert outputs() == want


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


# The parity network as it was written before the table was bit-sliced: one
# mask per column, its code kept verbatim (docstrings dropped) as an oracle.
# The only changes are the `fallbacks` counter in the candidates-exhausted
# branch, and `add_cnot` taking its gate from the graph's `_arcs`, now the
# only source of edge gates.
class _ReferenceState:
    def __init__(self, n, columns, g):
        self.n = n
        self.g = g
        # column id -> current mask (in the moving frame); angles fixed.
        self.masks = {cid: mask for cid, (mask, _) in columns.items()}
        self.angles = {cid: angle for cid, (_, angle) in columns.items()}
        self.pending = set(columns)
        self.wires = [1 << q for q in range(n)]  # physical wire parities
        self.gates = []

    def emit_ready(self):
        self._emit(cid for cid in self.pending if self.masks[cid] & (self.masks[cid] - 1) == 0)

    def _emit(self, ready):
        for cid in sorted(ready):
            wire = self.masks[cid].bit_length() - 1
            self.gates.append(rz(self.angles[cid], wire))
            self.pending.discard(cid)

    def add_cnot(self, control, target):
        self.gates.append(self.g._arcs[control, target])
        self.wires[target] ^= self.wires[control]
        # In the moving frame a CNOT adds the *target* row into the *control*
        # row of the parity table.
        masks = self.masks
        bit = 1 << control
        ready = []
        for cid in self.pending:
            mask = masks[cid]
            if (mask >> target) & 1:
                mask ^= bit
                masks[cid] = mask
                if mask & (mask - 1) == 0:
                    ready.append(cid)
        if ready:
            self._emit(ready)


def _reference_fold_rows(state, cols, pivot, g):
    live = [c for c in cols if c in state.pending]
    if not live:
        return
    ones = None
    for cid in live:
        ones = state.masks[cid] if ones is None else ones & state.masks[cid]
    terms = {q for q in range(state.n) if (ones >> q) & 1 and q != pivot}
    if not terms:
        return
    tree = steiner_approx(g, terms | {pivot}, root=pivot)
    for control, target in plan_pre_transpose(tree):
        state.add_cnot(target, control)


def reference_parity_network(s, g, fallbacks):
    """Gates and linear map of the mask-per-column network; appends one
    entry to `fallbacks` each time the candidates run out."""
    n = s.num_qubits
    columns = {
        cid: (mask, s.phase.terms[mask]) for cid, mask in enumerate(build_parity_matrix(s))
    }
    state = _ReferenceState(n, columns, g)
    state.emit_ready()

    def recurse(cols, candidates):
        cols = [c for c in cols if c in state.pending]
        if not cols:
            return
        if not candidates:
            fallbacks.append(len(cols))
            for cid in list(cols):
                if cid not in state.pending:
                    continue
                pivot = (state.masks[cid] & -state.masks[cid]).bit_length() - 1
                _reference_fold_rows(state, [cid], pivot, g)
            return
        best = None
        for j in sorted(candidates):
            ones = sum((state.masks[c] >> j) & 1 for c in cols)
            score = max(ones, len(cols) - ones)
            if best is None or score > best[0]:
                best = (score, j)
        j = best[1]
        zeros = [c for c in cols if not (state.masks[c] >> j) & 1]
        ones = [c for c in cols if (state.masks[c] >> j) & 1]
        recurse(zeros, candidates - {j})
        if ones:
            _reference_fold_rows(state, ones, j, g)
            recurse(ones, candidates - {j})

    recurse(sorted(columns), set(range(n)))
    assert not state.pending
    return tuple(state.gates), BinaryMatrix(n, tuple(state.wires))


def test_bit_sliced_network_matches_the_mask_reference():
    graphs = [
        line_graph(2),
        line_graph(7),
        grid_graph(4, 4),
        builtin_architecture("tokyo20"),
        builtin_architecture("bristlecone72"),
        complete_graph(5),
        complete_graph(9),
    ] + [random_connected_graph(n, p, n) for n in (4, 8, 12) for p in (0.15, 0.5, 1.0)]
    fallbacks = []
    for gi, g in enumerate(graphs):
        n = g.node_count
        for num_terms in (0, 1, n, 3 * n):
            for seed in (gi, gi + 100):
                sop = random_phase_instance(n, num_terms, seed)
                circ, linear = synth_parity_network_constrained(sop, g)
                assert (circ.gates, linear) == reference_parity_network(sop, g, fallbacks)
    # The candidates-exhausted branch was reached and matched as well.
    assert fallbacks


def test_the_row_choice_stops_at_the_lowest_perfect_split(monkeypatch):
    # Row 0 splits the three parities 1:2, rows 1 and 2 hold all three
    # (two perfect splits) and row 3 one.  The scan stops at row 1, since
    # under the lowest-row tie-break no later row can beat a perfect split,
    # so the first fold pivots on row 1 over all three parities: not on
    # row 2, and not on the zero side of a split at row 0.
    terms = {0b0110: A(1), 0b0111: A(3), 0b1110: A(5)}
    sop = SumOverPaths(PhasePolynomial(4, terms), BinaryMatrix.identity(4))
    g = line_graph(4)
    folds = []
    fold = phase_synth._fold_rows

    def recording(state, cols, pivot, graph):
        folds.append((pivot, cols))
        fold(state, cols, pivot, graph)

    monkeypatch.setattr(phase_synth, "_fold_rows", recording)
    circ, linear = synth_parity_network_constrained(sop, g)
    assert folds[0] == (1, 0b111)
    assert (circ.gates, linear) == reference_parity_network(sop, g, [])
    assert extract_sum_over_paths(circ).phase == sop.phase


def phase_free_graphs():
    """A line, a grid, tokyo20 and a random graph."""
    return [
        line_graph(7),
        grid_graph(3, 4),
        builtin_architecture("tokyo20"),
        random_connected_graph(12, 0.3, 8),
    ]


@pytest.mark.parametrize("g", phase_free_graphs(), ids=lambda g: g.name)
def test_phase_free_instance_skips_the_network_and_keeps_its_gates(g):
    n = g.node_count
    for seed in range(8):
        sop = SumOverPaths(PhasePolynomial(n, {}), random_invertible(n, seed))
        # The path through the parity network, written out.
        network, c_matrix = synth_parity_network_constrained(sop, g)
        target = multiply(sop.linear, invert(c_matrix))
        fixup = _synthesize_rowcol(target, invert(target), g)
        want = network.extended(fixup.gates)
        got, _ = synthesize_cnot_rz(sop, g)
        assert got == want and got.gates == want.gates


def test_phase_free_instance_of_another_width_is_rejected():
    sop = SumOverPaths(PhasePolynomial(3, {}), BinaryMatrix.identity(3))
    with pytest.raises(ValueError, match="^task has 3 qubits but graph has 4 nodes$"):
        synthesize_cnot_rz(sop, line_graph(4))


def test_parity_network_leaves_no_reference_cycle():
    g = builtin_architecture("tokyo20")
    sop = random_phase_instance(20, 20, 3)
    gc.collect()
    gc.disable()
    try:
        synth_parity_network_constrained(sop, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_templates_baseline_frees_its_complete_graph_without_the_cycle_collector():
    # The baseline synthesizes on a complete graph it builds and drops;
    # that graph's pair-tree memo must not keep it alive in a cycle.
    g = builtin_architecture("tokyo20")
    sop = random_phase_instance(20, 20, 3)
    gc.collect()
    gc.disable()
    try:
        run(sop, g, "templates")
        assert gc.collect() == 0
    finally:
        gc.enable()
