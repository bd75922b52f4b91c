"""Template expansion of long-range CNOTs, its per-graph ladder table, and
the one shared CNOT per directed edge that every graph-aware synthesizer
emits."""

import hashlib
import math

import pytest

from steinersynth import cnot_synth, emit_circuit, phase_synth, random_invertible
from steinersynth.bench import baseline_pmh_templates, random_phase_instance, random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, h
from steinersynth.cnot_synth import (
    _arc_gates,
    _expanded_cnot_count,
    _path_ops,
    _pmh_pairs,
    expand_templates,
    naive_swap_expand,
    pmh_synthesize,
    section_widths,
    synthesize_constrained,
)
from steinersynth.gf2 import BinaryMatrix, simulate_cnot_circuit
from steinersynth.graphs import (
    builtin_architecture,
    complete_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
    shortest_path,
    steiner_approx,
)
from steinersynth.phase_synth import (
    PhasePolynomial,
    SumOverPaths,
    synth_parity_network_constrained,
    synthesize_cnot_rz,
)
from steinersynth.verify import edge_legal
from conftest import pmh_at


def _graph(name):
    if name == "rand20-0.1":
        return random_connected_graph(20, 0.1, 5)
    return builtin_architecture(name)


@pytest.mark.parametrize("name, seed, digest", [
    ("tokyo20", 1, "b6b2c0da7c258736f064b6e719e7f0aa80caecf434f5663b64bde74315358721"),
    ("tokyo20", 2, "b4b39f6ffdbeaed7867ea85868a44e6693b4b77ae62cdc25ce59b36d56547f36"),
    ("tokyo20", 3, "dfa15695478095f83953e8f4a974f4a83b0ab2f5db7d9398602d948e1d3335fb"),
    ("bristlecone72", 1, "17322044fb3bc0d5669b931a9ac338a00a71f8be8a7148771b181004a3a99096"),
    ("rand20-0.1", 1, "7a6da0491a0928bc35d0660652368de76b970b7b5fc5171e56fb85fea791b9c4"),
])
def test_golden_expansion_digests(name, seed, digest):
    # Recorded by building every ladder afresh; one graph serves every
    # section width, as in the pmh+templates baseline.
    g = _graph(name)
    a = random_invertible(g.node_count, seed)
    h = hashlib.sha256()
    for w in range(2, max(3, int(math.log2(g.node_count)) + 1)):
        h.update(emit_circuit(expand_templates(pmh_at(a, w), g)).encode())
    assert h.hexdigest() == digest


def test_every_ordered_pair_expands_to_its_ladder():
    g = builtin_architecture("tokyo20")
    n = g.node_count
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            single = Circuit(n, (cnot(c, t),))
            out = expand_templates(single, g)
            l = len(shortest_path(g, c, t)) - 1
            assert len(out) == (1 if l == 1 else 4 * (l - 1)), (c, t)
            assert edge_legal(out, g), (c, t)
            assert simulate_cnot_circuit(out) == simulate_cnot_circuit(single), (c, t)


def test_expansion_repeats_on_the_same_and_an_equal_graph():
    g = builtin_architecture("tokyo20")
    c = pmh_synthesize(random_invertible(20, 4))
    first = expand_templates(c, g)
    assert expand_templates(c, g) == first
    fresh = builtin_architecture("tokyo20")
    assert fresh == g
    assert expand_templates(c, fresh) == first


def test_expansion_splices_ladders_around_other_gates():
    # A gate-by-gate reference: an arc CNOT is its edge gate, any other its
    # `_path_ops` ladder of edge gates, and RZ and H gates pass through.
    g = builtin_architecture("tokyo20")
    probs = {"cnot": 0.6, "t": 0.1, "s": 0.05, "sdg": 0.05, "tdg": 0.05, "h": 0.15}
    circuits = [random_universal_circuit(20, 200, probs, seed) for seed in range(3)]
    circuits += [Circuit(20), Circuit(20, (h(0), h(3))), Circuit(20, (h(1), cnot(0, 19), h(19)))]
    for c in circuits:
        want = []
        for gate in c.gates:
            if gate.kind != "cnot":
                want.append(gate)
            elif g.has_edge(*gate.qubits):
                want.append(g._arcs[gate.qubits])
            else:
                want += (g._arcs[op] for op in _path_ops(shortest_path(g, *gate.qubits)))
        got = expand_templates(c, g).gates
        assert got == tuple(want)
        assert all(a is b for a, b in zip(got, want))
    kinds = [gate.kind for gate in circuits[0].gates]
    assert sum(a != "cnot" == b for a, b in zip(kinds, kinds[1:])) > 10  # many CNOT runs


def test_memo_leaves_graph_identity_alone():
    g = builtin_architecture("tokyo20")
    before = (hash(g), repr(g))
    expand_templates(pmh_synthesize(random_invertible(20, 1)), g)
    # Edges come from `_arcs`; the table's ladders are of non-adjacent pairs only.
    pairs = memo_pairs(g)
    assert pairs
    assert not any(g.has_edge(*pair) for pair in pairs)
    for pair in g._arcs:  # an arc routes to its own id alone
        assert ladder(g, pair) == (g._arcs[pair],)
    assert (hash(g), repr(g)) == before
    assert g == builtin_architecture("tokyo20")
    assert hash(g) == hash(builtin_architecture("tokyo20"))


def test_one_ladder_memo_serves_every_expansion(monkeypatch):
    # The pmh baseline, `expand_templates` and the route's CNOT count read
    # the same ladder table, made on first use: once the baseline has built
    # the ladders of its elimination's pairs, the others find every one there.
    g = builtin_architecture("tokyo20")
    assert g._ladders is None
    a = random_invertible(20, 3)
    baseline = baseline_pmh_templates(a, g)
    memo = g._ladders
    pairs = memo_pairs(g)
    assert pairs and not any(g.has_edge(*pair) for pair in pairs)
    monkeypatch.setattr(cnot_synth, "shortest_path", None)  # no new ladder is built
    for w in section_widths(20):
        ops = _pmh_pairs(a, w)
        assert len(expand_templates(pmh_at(a, w), g)) == _expanded_cnot_count(ops, g)
    assert baseline_pmh_templates(a, g) == baseline
    assert g._ladders is memo and memo_pairs(g) == pairs
    for pair in pairs:
        assert ladder(g, pair) == expand_templates(Circuit(20, (cnot(*pair),)), g).gates
    # The other way round: the baseline finds every ladder `expand_templates` built.
    monkeypatch.undo()
    fresh = builtin_architecture("tokyo20")
    for w in section_widths(20):
        expand_templates(pmh_at(a, w), fresh)
    monkeypatch.setattr(cnot_synth, "shortest_path", None)
    assert baseline_pmh_templates(a, fresh) == baseline
    assert memo_pairs(fresh) == pairs


def test_edge_legal_takes_either_orientation_and_rejects_non_edges():
    g = builtin_architecture("line(4)")
    assert edge_legal(Circuit(4, (cnot(0, 1), cnot(1, 0), cnot(3, 2))), g)
    assert not edge_legal(Circuit(4, (cnot(0, 1), cnot(0, 2))), g)
    assert not edge_legal(Circuit(4, (cnot(3, 0),)), g)


def test_edge_legal_on_shared_gate_objects_and_a_late_bad_edge():
    g = builtin_architecture("line(4)")
    legal, bad = cnot(0, 1), cnot(1, 3)
    assert edge_legal(Circuit(4, (legal,) * 1000 + (h(3), cnot(2, 1))), g)
    assert not edge_legal(Circuit(4, (legal,) * 1000 + (cnot(0, 3),)), g)
    assert not edge_legal(Circuit(4, (bad, legal, bad, legal)), g)


def memo_pairs(g) -> set:
    """The pairs whose ladder the graph's ladder table holds, those whose
    ops lie past the table's n*n own ids; a graph that never expanded a
    CNOT has no table."""
    memo = g._ladders
    if memo is None:
        return set()
    n = g.node_count
    return {divmod(p, n) for p in range(n * n) if memo.start[p] >= n * n}


def ladder(g, pair) -> tuple:
    """The arc gates of the table's routed ops for this pair."""
    memo, (c, t) = g._ladders, pair
    p = c * g.node_count + t
    return _arc_gates(memo.ops[memo.start[p]:memo.start[p] + memo.size[p]], g)


def _cnots_are_the_graph_gates(c: Circuit, g) -> bool:
    """Every CNOT of c is the very object the graph built for its edge."""
    return all(gate is g._arcs[gate.qubits] for gate in c.gates if gate.kind == "cnot")


@pytest.mark.parametrize("g", [
    line_graph(6),
    grid_graph(3, 3),
    complete_graph(5),
    builtin_architecture("tokyo20"),
    random_connected_graph(10, 0.3, 2),
], ids=lambda g: g.name)
def test_every_synthesizer_emits_the_graph_edge_gates(g):
    n = g.node_count
    probs = {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}
    for seed in range(3):
        a = random_invertible(n, seed)
        assert _cnots_are_the_graph_gates(synthesize_constrained(a, g)[0], g)
        sop = random_phase_instance(n, 2 * n, seed)
        assert _cnots_are_the_graph_gates(synthesize_cnot_rz(sop, g)[0], g)
        # Input CNOTs are fresh objects, on edges and off them.
        for source in (pmh_synthesize(a), random_universal_circuit(n, 60, probs, seed)):
            assert _cnots_are_the_graph_gates(expand_templates(source, g), g)
            assert _cnots_are_the_graph_gates(naive_swap_expand(source, g), g)
    assert not any(g.has_edge(*pair) for pair in memo_pairs(g))


def test_parity_network_rejects_a_non_edge_even_with_its_ladder_memoized(monkeypatch):
    # A memoized ladder is no edge gate: a CNOT off the graph is a KeyError.
    # The network folds x0 + x1 with the graph's gate for edge (1, 0); a
    # fold of x0 + x2 along a tree with the non-edge between 0 and 2 looks
    # up CNOT(2, 0), whose ladder is memoized, and finds no gate for it.
    g = line_graph(3)
    expand_templates(Circuit(3, (cnot(2, 0),)), g)
    assert (2, 0) in memo_pairs(g)

    def network(mask):
        sop = SumOverPaths(PhasePolynomial(3, {mask: Angle(1, 8)}), BinaryMatrix.identity(3))
        return synth_parity_network_constrained(sop, g)[0]

    assert network(0b011).gates[:-1] == (g._arcs[1, 0],)
    k3 = complete_graph(3)
    monkeypatch.setattr(phase_synth, "steiner_approx",
                        lambda _, terms, root: steiner_approx(k3, terms, root=root))
    with pytest.raises(KeyError):
        network(0b101)
