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
from steinersynth.cnot_synth import _synthesize_rowcol
from steinersynth.gf2 import _transposed_times_inverse, invert, multiply
from steinersynth.graphs import (
    builtin_architecture,
    complete_graph,
    grid_graph,
    line_graph,
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


def lazy_network_graphs():
    """Lines, grids, complete and random graphs of 2 to 20 nodes, and
    bristlecone72."""
    graphs = [line_graph(n) for n in (2, 3, 7, 20)]
    graphs += [grid_graph(r, c) for r, c in ((1, 2), (2, 3), (3, 4), (5, 4))]
    graphs += [complete_graph(n) for n in (2, 5, 9, 20)]
    graphs += [random_connected_graph(n, p, n) for n in (4, 11, 20) for p in (0.15, 0.5)]
    return graphs + [builtin_architecture("bristlecone72")]


def lazy_network_cases():
    """Phase tasks of 1 to 3n terms on each of `lazy_network_graphs`."""
    for g in lazy_network_graphs():
        n = g.node_count
        for seed, num_terms in enumerate((1, n // 2 + 1, 2 * n, 3 * n)):
            yield g, random_phase_instance(n, num_terms, 31 * n + seed)


def test_parity_coverage_replay():
    # Every support parity must appear, by exactly one rotation, on the
    # wire carrying it, and the map handed over is the one the network's
    # CNOTs apply.
    rng = random.Random(9)
    cases = []
    for trial in range(40):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng.uniform(0.3, 1.0), trial)
        cases.append((g, random_phase_instance(n, rng.randint(1, 2 * n), trial)))
    for g, sop in cases + list(lazy_network_cases()):
        n = g.node_count
        circ, linear = synth_parity_network_constrained(sop, g)
        wires = [1 << q for q in range(n)]
        placed = []
        for gate in circ.gates:
            if gate.kind == "cnot":
                wires[gate.target] ^= wires[gate.control]
            else:
                placed.append((wires[gate.target], gate.angle))
        assert dict(placed) == sop.phase.terms and len(placed) == len(sop.phase.terms)
        cnots = Circuit(n, tuple(gate for gate in circ.gates if gate.kind == "cnot"))
        assert linear == simulate_cnot_circuit(cnots)
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
    cases = []
    for trial in range(60):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.uniform(0.15, 1.0), trial + 7)
        cases.append((g, random_phase_instance(n, rng.randint(0, 2 * n), trial)))
    for g, sop in cases + list(lazy_network_cases()):
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


def test_lazy_network_takes_the_cheapest_estimated_fold_first():
    # On line(4), x1+x2+x3 spans more wires than x0+x3, but its wires are
    # connected, so its estimate, 2, is its fold's cost; x0+x3 spans two
    # components, so its estimate is 1 + 2 = 3, for the Steiner nodes 1 and
    # 2.  x1+x2+x3 goes first, onto wire 1.  Its CNOTs target wires 2 and
    # 1, which x0+x3's support does not hold, so that support stays {0, 3}
    # and x0+x3 is then folded through wires 2 and 1 onto wire 0.
    terms = {0b1110: A(1), 0b1001: A(3)}
    sop = SumOverPaths(PhasePolynomial(4, terms), BinaryMatrix.identity(4))
    assert build_parity_matrix(sop) == [0b1110, 0b1001]
    circ, _ = synth_parity_network_constrained(sop, line_graph(4))
    assert circ.gates == (
        cnot(3, 2), cnot(2, 1), rz(A(1), 1),
        cnot(2, 3), cnot(3, 2), cnot(1, 2), cnot(2, 1), cnot(1, 0), rz(A(3), 0),
    )
    assert extract_sum_over_paths(circ).phase == sop.phase


def test_lazy_network_breaks_support_ties_by_input_order():
    # x0+x1 and x2+x3 on line(4) both span two wires: x2+x3, bitstring
    # 0011, comes first in input order and goes first, though its mask is
    # the larger.
    terms = {0b0011: A(1), 0b1100: A(5)}
    sop = SumOverPaths(PhasePolynomial(4, terms), BinaryMatrix.identity(4))
    assert build_parity_matrix(sop) == [0b1100, 0b0011]
    circ, _ = synth_parity_network_constrained(sop, line_graph(4))
    assert circ.gates == (cnot(3, 2), rz(A(5), 2), cnot(1, 0), rz(A(1), 0))


def fold_estimate(g, support: int) -> int:
    """|S| - 1 + 2·(c(S) - 1) for the wires S of `support`, with c(S), the
    connected components of the subgraph induced on S, found by a plain
    depth-first search over `g.neighbors`."""
    wires = {q for q in range(g.node_count) if support >> q & 1}
    seen: set[int] = set()
    parts = 0
    for q in wires:
        if q in seen:
            continue
        parts += 1
        seen.add(q)
        stack = [q]
        while stack:
            for v in g.neighbors(stack.pop()):
                if v in wires and v not in seen:
                    seen.add(v)
                    stack.append(v)
    return len(wires) - 1 + 2 * (parts - 1)


def test_pruned_scan_picks_the_full_argmin(monkeypatch):
    # At every step of the network, the pruned scan picks the term a full
    # argmin by (estimate, support size, position) picks, on random 2- to
    # 12-wire instances on lines, grids and random graphs.  A connected
    # support's fold emits exactly its estimate in CNOTs, and every output
    # is exact and edge-legal.
    real = phase_synth._next_term
    graph, picks = [], []  # picks: (cost key, smallest support size)

    def checked(sup, adj_masks):
        k = real(sup, adj_masks)
        keys = [(fold_estimate(graph[-1], m), m.bit_count(), j) for j, m in enumerate(sup)]
        assert keys[k] == min(keys)
        picks.append((keys[k], min(m.bit_count() for m in sup)))
        return k

    monkeypatch.setattr(phase_synth, "_next_term", checked)
    rng = random.Random(43)
    steps = not_smallest = 0
    for trial in range(120):
        n = rng.randint(2, 12)
        rows = rng.choice([r for r in range(1, n + 1) if n % r == 0])
        g = [line_graph(n), grid_graph(rows, n // rows),
             random_connected_graph(n, rng.uniform(0.15, 0.6), trial)][trial % 3]
        sop = random_phase_instance(n, rng.randint(1, 3 * n), 700 + trial)
        graph.append(g)
        picks.clear()
        network, _ = synth_parity_network_constrained(sop, g)
        # Each step's CNOTs, as the run of "c"s before its RZ's "r".
        folds = "".join(gate.kind[0] for gate in network.gates).split("r")[:-1]
        assert len(folds) == len(picks)
        for ((estimate, size, _), smallest), fold in zip(picks, folds):
            if estimate == size - 1:
                assert len(fold) == estimate, (g.name, trial)
            not_smallest += size > smallest
        steps += len(picks)
        circ, _ = synthesize_cnot_rz(sop, g)
        back = extract_sum_over_paths(circ)
        assert back.phase == sop.phase and back.linear == sop.linear, (g.name, trial)
        assert edge_legal(circ, g), (g.name, trial)
    assert steps > 1000 and not_smallest > 100, (steps, not_smallest)


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
