"""Where `Circuit`'s wire check and `BinaryMatrix`'s row checks run, and
where they are skipped.

The public constructors and the parser check every wire and row; their
messages are pinned in `test_formats.py`, `test_gf2.py` and below.
Cleanup, the synthesizers, the matrix baselines' winner, the parity
network, the route and the template expansion of a circuit at least as
wide as its graph build their circuits with `Circuit._unchecked`,
because each of their wires is in range by construction.  Transposes,
products, inverses, simulations and the synthesizers' and the route's
matrices are built with `BinaryMatrix._unchecked` from checked ones.
These tests rebuild every such output through the public constructor,
which raises on a wire outside the circuit or a row outside the matrix,
and keep the checks at the boundaries.
"""

import random

import pytest

from steinersynth import ConnectivityGraph, random_connected_graph, random_invertible, universal
from steinersynth.bench import random_universal_circuit
from steinersynth.circuits import Circuit, CircuitFormatError, cnot, h, parse_circuit
from steinersynth.cnot_synth import (
    _arc_gates,
    _expand_ids,
    _pmh_pairs,
    _rowcol_up_to,
    expand_templates,
    naive_column_cost,
    section_widths,
    synthesize_constrained,
)
from steinersynth.gf2 import (
    BinaryMatrix,
    _transposed_times_inverse,
    invert,
    multiply,
    simulate_cnot_circuit,
)
from steinersynth.graphs import complete_graph, grid_graph, line_graph
from steinersynth.optimizer import cancel_pass
from steinersynth.phase_synth import (
    _synthesize_up_to,
    extract_sum_over_paths,
    synth_parity_network_constrained,
    synthesize_cnot_rz,
)
from steinersynth.pipeline import run
from steinersynth.universal import _route, merge_delete_h, partition_segments
from steinersynth.verify import edge_legal

PROBS = {"cnot": 0.6, "t": 0.1, "s": 0.1, "sdg": 0.05, "tdg": 0.05, "h": 0.1}
GRIDS = {2: (1, 2), 4: (2, 2), 6: (2, 3), 9: (3, 3), 12: (3, 4), 16: (4, 4), 20: (4, 5)}


def graphs():
    """Line, grid, random and complete graphs at 2 to 20 wires."""
    for n, (rows, cols) in GRIDS.items():
        yield line_graph(n)
        yield grid_graph(rows, cols)
        yield random_connected_graph(n, 0.4, n)
        yield complete_graph(n)


def tasks(n: int, seed: int) -> list:
    """One task of each kind: a matrix, a sum over paths and a circuit."""
    rng = random.Random(seed)
    phase_free = {**PROBS, "h": 0.0}
    return [
        random_invertible(n, rng.randrange(1 << 30)),
        extract_sum_over_paths(random_universal_circuit(n, 4 * n, phase_free, rng.randrange(1 << 30))),
        random_universal_circuit(n, 5 * n, PROBS, rng.randrange(1 << 30)),
    ]


def assert_rebuilds(c: Circuit, key) -> None:
    assert Circuit(c.num_qubits, c.gates) == c, key


@pytest.mark.parametrize("g", list(graphs()), ids=lambda g: g.name)
def test_every_unchecked_output_survives_the_public_constructor(g):
    n = g.node_count
    for seed in range(2):
        matrix, phase, circuit = tasks(n, 97 * n + seed)
        for task in (matrix, phase, circuit):
            for method in ("steiner", "pmh", "templates"):
                if method == "pmh" and task is not matrix:
                    continue
                for cleanup in (True, False):
                    out, _, cert = run(task, g, method, cleanup)
                    key = (g.name, seed, type(task).__name__, method, cleanup)
                    assert cert[1], key
                    assert_rebuilds(out, key)
        for w in section_widths(n):
            expanded = _arc_gates(_expand_ids(_pmh_pairs(matrix, w), g), g)
            assert_rebuilds(Circuit._unchecked(n, expanded), (g.name, seed, "pmh candidate", w))
        reduced = merge_delete_h(circuit)
        assert_rebuilds(reduced, (g.name, seed, "merge_delete_h"))
        assert_rebuilds(cancel_pass(circuit), (g.name, seed, "cancel_pass"))
        assert_rebuilds(cancel_pass(reduced), (g.name, seed, "cancel_pass of merged"))
        segments = partition_segments(reduced)
        assert_rebuilds(_route(segments, g), (g.name, seed, "route"))


@pytest.mark.parametrize("g", list(graphs()), ids=lambda g: g.name)
def test_every_unchecked_matrix_survives_the_public_constructor(g, monkeypatch):
    routed = []

    def recording(frame, graph, stop):
        out = _synthesize_up_to(frame, graph, stop)
        routed.extend((frame.linear, frame.linear_inv, *out[1:]))
        return out

    monkeypatch.setattr(universal, "_synthesize_up_to", recording)
    n = g.node_count
    for seed in range(2):
        matrix, phase, circuit = tasks(n, 97 * n + seed)
        inverse = invert(matrix)
        synthesized, _ = synthesize_constrained(matrix, g)
        phased, _ = synthesize_cnot_rz(phase, g)
        back = extract_sum_over_paths(phased)
        built = [
            matrix.transpose(), multiply(matrix, inverse), inverse,
            simulate_cnot_circuit(synthesized),
            _transposed_times_inverse(matrix, synthesized.gates),
            synth_parity_network_constrained(phase, g)[1], phase.linear, phase.linear_inv,
            back.linear, back.linear_inv,
        ]
        evens = frozenset(range(0, n, 2))
        built += _rowcol_up_to(matrix.transpose(), inverse, g, evens)[1:]
        for stop in (None, evens):
            built += _synthesize_up_to(phase, g, stop)[1:]
        _route(partition_segments(merge_delete_h(circuit)), g)
        assert routed
        for k, m in enumerate(built + routed):
            assert m.dim == n and BinaryMatrix(m.dim, m.rows) == m, (g.name, seed, k)
        routed.clear()


def test_cleanup_and_h_merging_keep_wide_inputs_in_range():
    # Many merges and cancellations on few wires, and H/S/H sandwiches for
    # merge_delete_h's rewrite, at widths where no synthesis runs.
    probs = {"cnot": 0.3, "t": 0.1, "s": 0.25, "sdg": 0.05, "tdg": 0.0, "h": 0.3}
    for n in (2, 3, 7, 20):
        for seed in range(10):
            c = random_universal_circuit(n, 200, probs, seed)
            for out in (cancel_pass(c), merge_delete_h(c), cancel_pass(merge_delete_h(c))):
                assert_rebuilds(out, (n, seed))


def test_the_parser_still_names_the_line_of_a_bad_wire():
    with pytest.raises(CircuitFormatError, match=r"^line 3: wire 3 out of range \(0\.\.2\)$"):
        parse_circuit("qubits 3\ncnot 0 1\ncnot 1 3\n")


def test_template_expansion_still_checks_wires():
    # A star around node 4: the shortest 0-2 path runs through it, so the
    # ladder of a 3-wire `cnot 0 2` leaves the circuit's wires.
    g = ConnectivityGraph(5, frozenset({(0, 4), (1, 4), (2, 4), (3, 4)}))
    with pytest.raises(ValueError, match=r"^wire 4 out of range for 3 qubits$"):
        expand_templates(Circuit(3, (cnot(0, 2),)), g)


def test_template_expansion_checks_wires_only_below_the_graph_width(monkeypatch):
    # A circuit at least as wide as the graph has every CNOT wire checked
    # as a graph node and every routed gate on an arc, so its expansion
    # skips the wire check; a narrower one keeps it, and raises when a
    # ladder's relay node lies past its wires.
    star = ConnectivityGraph(5, frozenset({(0, 4), (1, 4), (2, 4), (3, 4)}), name="star5")
    g = grid_graph(3, 3)
    wide = [random_universal_circuit(9, 80, PROBS, seed) for seed in range(3)]
    wide += [Circuit(12, c.gates + (h(11),)) for c in wide]  # an H past the graph
    cases = [(c, g) for c in wide] + [(Circuit(5, (cnot(0, 2), h(3))), star)]
    cases.append((Circuit(7, (cnot(0, 2), h(6), cnot(6, 1), cnot(3, 5))), g))  # ladders below 7
    checked = []
    check = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__", lambda c: (checked.append(c.num_qubits), check(c)))
    outs = []
    for c, graph in cases:
        outs.append(expand_templates(c, graph))
        assert checked == ([7] if c.num_qubits < graph.node_count else []), c.num_qubits
        checked.clear()
    assert outs[-1].cnot_count == 4 + 8 + 4
    for out, (c, graph) in zip(outs, cases):
        assert edge_legal(out, graph)
        assert_rebuilds(out, c.num_qubits)
    with pytest.raises(ValueError, match=r"^wire 4 out of range for 3 qubits$"):
        expand_templates(Circuit(3, (cnot(0, 2),)), star)


@pytest.mark.parametrize("gate, wire", [(cnot(3, 4), 3), (cnot(0, 4), 4), (cnot(4, 1), 4)])
def test_template_expansion_rejects_a_cnot_wire_off_the_graph(gate, wire):
    # A wire past the graph would give a pair id naming another pair.
    g = line_graph(3)
    with pytest.raises(ValueError, match=rf"^wire {wire} is not a node of line\(3\) \(3 nodes\)$"):
        expand_templates(Circuit(5, (h(4), gate)), g)
    assert g._ladders is None
    with pytest.raises(ValueError, match=r"^wire 3 is not a node of line\(3\) \(3 nodes\)$"):
        naive_column_cost({1, 3}, 0, g)
