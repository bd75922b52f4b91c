import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from steinersynth import (
    BinaryMatrix,
    builtin_architecture,
    cancel_pass,
    invert,
    merge_delete_h,
    multiply,
    partition_segments,
    random_connected_graph,
    random_invertible,
    route_universal,
    run,
    simulate_cnot_circuit,
)
from steinersynth.bench import prefix_subgraph, random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, emit_circuit, h, rz
from steinersynth.cnot_synth import _rowcol_up_to, _synthesize_rowcol, expand_templates
from steinersynth.graphs import complete_graph, grid_graph, line_graph
from steinersynth.phase_synth import (
    PhasePolynomial,
    SumOverPaths,
    _read_path_sum,
    _synthesize_up_to,
    extract_sum_over_paths,
    synthesize_cnot_rz,
)
from steinersynth.unitary import circuit_unitary
from steinersynth import universal
from steinersynth.universal import Segment
from steinersynth.verify import certify, edge_legal, verify_equivalence
from conftest import all_gates_up_to, commutes
from structured import cuccaro_adder, qaoa, toffoli_chain


def test_commutes_sound_against_matrices():
    # Exhaustive soundness: claiming commutation implies the matrices agree.
    n = 3
    for a in all_gates_up_to(n):
        for b in all_gates_up_to(n):
            ua, ub = circuit_unitary(Circuit(n, (a,))), circuit_unitary(Circuit(n, (b,)))
            matrices_commute = np.allclose(ua @ ub, ub @ ua, atol=1e-12)
            if commutes(a, b):
                assert matrices_commute, f"{a} vs {b}"


def test_commutes_expected_pairs():
    assert commutes(cnot(0, 1), cnot(0, 2))        # shared control
    assert commutes(cnot(1, 0), cnot(2, 0))        # shared target
    assert commutes(rz(Angle(1, 8), 0), cnot(0, 1))  # rotation on control
    assert not commutes(rz(Angle(1, 8), 1), cnot(0, 1))
    assert not commutes(h(0), cnot(0, 1))
    assert commutes(h(0), cnot(1, 2))


def test_merge_delete_h_pairs():
    assert len(merge_delete_h(Circuit(1, (h(0), h(0))))) == 0
    c = Circuit(2, (h(0), rz(Angle(1, 8), 1), h(0)))
    out = merge_delete_h(c)
    assert out.gates == (rz(Angle(1, 8), 1),)


def test_merge_delete_h_s_conjugation():
    c = Circuit(1, (h(0), rz(Angle(1, 4), 0), h(0)))
    out = merge_delete_h(c)
    assert out.count("h") == 1
    assert verify_equivalence(c, out, "unitary").equivalent


def test_merge_delete_h_random_equivalence():
    rng = random.Random(3)
    probs = {"cnot": 0.4, "s": 0.05, "t": 0.05, "sdg": 0.05, "tdg": 0.05, "h": 0.4}
    for trial in range(50):
        n = rng.randint(2, 4)
        c = random_universal_circuit(n, 200, probs, trial)
        out = merge_delete_h(c)
        assert out.count("h") <= c.count("h")
        assert verify_equivalence(c, out, "unitary").equivalent


_S, _SDG = Angle(1, 4), Angle(3, 4)


def reference_merge_delete_h(c: Circuit) -> Circuit:
    """The quadratic loop merge_delete_h replaced, kept as the oracle: it
    applies the rule of the lowest H that has one, then rescans from the
    first gate."""
    gates = list(c.gates)

    def next_on_wire(start: int, wire: int):
        for j in range(start, len(gates)):
            if wire in gates[j].qubits:
                return j
        return None

    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            if g.kind != "h":
                continue
            q = g.target
            j = next_on_wire(i + 1, q)
            if j is None:
                continue
            if gates[j] == g:
                del gates[j], gates[i]
                changed = True
                break
            mid = gates[j]
            if mid.kind == "rz" and mid.angle in (_S, _SDG):
                k = next_on_wire(j + 1, q)
                if k is not None and gates[k] == g:
                    conj = rz(-mid.angle, q)
                    gates[i], gates[j], gates[k] = conj, h(q), conj
                    changed = True
                    break
    return Circuit(c.num_qubits, tuple(gates))


def _assert_merge_matches_reference(c: Circuit) -> None:
    assert emit_circuit(merge_delete_h(c)) == emit_circuit(reference_merge_delete_h(c)), c


def test_merge_delete_h_matches_reference_on_every_short_wire():
    # Every sequence of up to six gates from H, S, Sdg and T on wire 0 and
    # a CNOT onto it: sandwiches, runs of pairs, pairs that meet only once
    # an inner pair or sandwich is rewritten, and blockers between them.
    tokens = [h(0), rz(_S, 0), rz(_SDG, 0), rz(Angle(1, 8), 0), cnot(1, 0)]
    for length in range(7):
        for seq in itertools.product(tokens, repeat=length):
            _assert_merge_matches_reference(Circuit(2, seq))


def test_merge_delete_h_nested_pairs_and_sandwiches():
    s, sdg, t = rz(_S, 0), rz(_SDG, 0), rz(Angle(1, 8), 0)
    s1, sdg1 = rz(_S, 1), rz(_SDG, 1)
    cases = {
        (h(0), h(1), h(1), h(0)): (),
        (h(0), h(0), h(0), h(0)): (),
        (h(0), h(0), h(0)): (h(0),),
        (h(0), s, h(0)): (sdg, h(0), sdg),
        (h(0), sdg, h(0), cnot(0, 1), h(0), h(1), s1, h(1), h(0)): (
            s, h(0), s, cnot(0, 1), sdg1, h(1), sdg1),
        # The sandwich's new H meets the next H through its conjugate.
        (h(0), s, h(0), h(0)): (sdg, s, h(0), s),
        (h(0), s, h(0), sdg, h(0)): (sdg, h(0), sdg, sdg, h(0)),
        (h(0), s, h(0), h(0), s, h(0)): (sdg, s, h(0), s, s, h(0)),
        (h(0), t, h(0)): (h(0), t, h(0)),
        (h(0), s, cnot(1, 0), h(0)): (h(0), s, cnot(1, 0), h(0)),
    }
    for source, want in cases.items():
        c = Circuit(2, source)
        out = merge_delete_h(c)
        assert out.gates == want, source
        assert out == reference_merge_delete_h(c)
        assert verify_equivalence(c, out, "unitary").equivalent


@pytest.mark.parametrize("count,wires,seed", [(2000, 3, 1), (2000, 16, 2), (8000, 6, 3), (32000, 20, 4)])
def test_merge_delete_h_matches_reference_on_long_random_circuits(count, wires, seed):
    heavy = {"cnot": 0.45, "s": 0.12, "sdg": 0.12, "t": 0.03, "tdg": 0.03, "h": 0.25}
    light = {"cnot": 0.78, "s": 0.05, "sdg": 0.05, "t": 0.01, "tdg": 0.01, "h": 0.1}
    c = random_universal_circuit(wires, count, heavy if count < 32000 else light, seed)
    _assert_merge_matches_reference(c)


def test_partition_no_h_single_block():
    c = Circuit(3, (cnot(0, 1), rz(Angle(1, 8), 2), cnot(1, 2)))
    segs = partition_segments(c)
    assert [s.kind for s in segs] == ["cnot_block"]
    assert segs[0].gates == c.gates


def test_partition_disjoint_h_commutes_out():
    c = Circuit(3, (cnot(0, 1), h(2), cnot(0, 1)))
    segs = partition_segments(c)
    cnot_blocks = [s for s in segs if s.kind == "cnot_block"]
    assert max(len(s.gates) for s in cnot_blocks) == 2


def test_partition_preserves_gates_and_unitary():
    rng = random.Random(8)
    probs = {"cnot": 0.6, "s": 0.05, "t": 0.05, "sdg": 0.02, "tdg": 0.03, "h": 0.25}
    for trial in range(40):
        n = rng.randint(2, 4)
        c = random_universal_circuit(n, 100, probs, trial + 40)
        segs = partition_segments(c)
        rebuilt = Circuit(n, tuple(g for seg in segs for g in seg.gates))
        assert len(rebuilt) == len(c)
        assert verify_equivalence(c, rebuilt, "unitary").equivalent
        for seg in segs:
            kinds = {g.kind for g in seg.gates}
            if seg.kind == "h_block":
                assert kinds <= {"h"}
            else:
                assert kinds <= {"cnot", "rz"}


def test_route_h_free_reduces_to_phase_synthesis():
    g = line_graph(4)
    c = Circuit(4, (cnot(0, 3), rz(Angle(1, 8), 2)))
    routed, _ = route_universal(c, g)
    assert routed.count("h") == 0
    assert verify_equivalence(c, routed, "unitary").equivalent
    assert edge_legal(routed, g)
    # An H-free circuit is one CNOT+RZ segment: its route is the CNOT+RZ
    # synthesis of its path sum, unless its ladder expansion has fewer CNOTs.
    rng = random.Random(20)
    probs = {"s": 0.05, "t": 0.05, "sdg": 0.05, "tdg": 0.05, "h": 0.0, "cnot": 0.8}
    for trial in range(24):
        n = rng.randint(2, 8)
        c = random_universal_circuit(n, rng.randint(1, 60), probs, 300 + trial)
        for g in (line_graph(n), *_route_graphs(rng, n, trial)):
            resynth, _ = synthesize_cnot_rz(extract_sum_over_paths(c), g)
            templates = expand_templates(c, g)
            want = resynth if resynth.cnot_count <= templates.cnot_count else templates
            assert emit_circuit(route_universal(c, g)[0]) == emit_circuit(want), (trial, g.name)


def test_route_small_mixed_circuit():
    g = line_graph(3)
    c = Circuit(3, (rz(Angle(1, 8), 0), cnot(0, 2), h(1), cnot(2, 0)))
    routed, _ = route_universal(c, g)
    assert edge_legal(routed, g)
    assert verify_equivalence(c, routed, "unitary").equivalent


def _route_graphs(rng, n, trial):
    """A random connected graph on n nodes, and the complete one."""
    return random_connected_graph(n, rng.uniform(0.2, 1.0), trial), complete_graph(n)


def test_route_random_universal_circuits():
    # Every width up to the unitary cap, on a random graph and on the
    # complete one, so segments of both candidate kinds are checked.
    rng = random.Random(77)
    for trial in range(30):
        n = rng.randint(2, 8)
        p_h = rng.uniform(0.0, 0.2)
        probs = {"s": 0.01, "t": 0.01, "sdg": 0.01, "tdg": 0.01,
                 "h": p_h, "cnot": 0.96 - p_h}
        c = random_universal_circuit(n, 60, probs, trial)
        for g in _route_graphs(rng, n, trial):
            routed, report = route_universal(c, g)
            assert edge_legal(routed, g), (trial, g.name)
            assert verify_equivalence(c, routed, "unitary").equivalent, (trial, g.name)
            assert report.cnot_count == routed.cnot_count


def test_route_needs_no_more_cnots_than_template_expansion():
    # Before cleanup, each CNOT+RZ segment keeps the cheaper of its
    # resynthesis and its own gates expanded into ladders, so the whole
    # route costs no more than expanding the H-reduced input.  On a
    # complete graph the expansion is the input itself.
    rng = random.Random(21)
    for trial in range(40):
        n = rng.randint(2, 10)
        p_h = rng.uniform(0.0, 0.3)
        probs = {"s": 0.02, "t": 0.02, "sdg": 0.01, "tdg": 0.01, "h": p_h, "cnot": 0.94 - p_h}
        c = random_universal_circuit(n, 150, probs, 500 + trial)
        for g in _route_graphs(rng, n, trial):
            templates = expand_templates(merge_delete_h(c), g)
            routed = route_universal(c, g)[0]
            assert routed.cnot_count <= templates.cnot_count, (trial, g.name)
            # The expansion is the route whenever the carry route is over it.
            if carry(c, g).cnot_count > templates.cnot_count:
                assert emit_circuit(routed) == emit_circuit(templates), (trial, g.name)


def test_route_on_a_complete_graph_keeps_the_input_cnot_count_as_a_bound():
    # Resynthesizing every segment gave 3,093 CNOTs for these 1,701.
    probs = {"s": 0.02, "t": 0.02, "sdg": 0.01, "tdg": 0.01, "h": 0.1, "cnot": 0.84}
    c = random_universal_circuit(16, 2000, probs, 1)
    routed, _ = route_universal(c, complete_graph(16))
    assert routed.cnot_count <= c.cnot_count


def test_a_route_without_h_keeps_the_cheaper_of_resynthesis_and_expansion():
    # With no H there is one CNOT+RZ segment, the whole circuit: the route
    # is its resynthesis unless the ladder expansion has strictly fewer
    # CNOTs, so ties go to the resynthesis.  Short circuits, so that the
    # expansion wins or ties often.
    rng = random.Random(22)
    signs = set()
    for trial in range(30):
        n = rng.randint(2, 8)
        probs = {"s": 0.05, "t": 0.05, "sdg": 0.05, "tdg": 0.05, "cnot": 0.8}
        c = random_universal_circuit(n, 20, probs, 700 + trial)
        for g in _route_graphs(rng, n, trial):
            resynth, _ = synthesize_cnot_rz(extract_sum_over_paths(c), g)
            templates = expand_templates(c, g)
            d = templates.cnot_count - resynth.cnot_count
            signs.add((d > 0) - (d < 0))
            want = templates if d < 0 else resynth
            assert emit_circuit(route_universal(c, g)[0]) == emit_circuit(want), (trial, g.name)
    assert signs == {-1, 0, 1}, "the expansion never won, tied or lost"


def carry(c: Circuit, g) -> Circuit:
    """The route that carries the linear residual across H runs, before
    `route_universal` compares it with the template expansion."""
    return universal._route(partition_segments(merge_delete_h(c)), g)


def h_mix(p_h: float) -> dict:
    return {"s": 0.02, "t": 0.02, "sdg": 0.01, "tdg": 0.01, "h": p_h, "cnot": 0.94 - p_h}


def structured_graphs() -> list:
    return [prefix_subgraph(builtin_architecture("tokyo20"), 16), grid_graph(4, 4), line_graph(16)]


def test_carry_routes_are_exact_and_edge_legal():
    # Every width from 3 to the unitary cap, on a line, a random graph and
    # the complete graph.  When the carry route needs no more CNOTs than
    # the template expansion, it is the route.
    rng = random.Random(41)
    for trial in range(24):
        n = rng.randint(3, 8)
        c = random_universal_circuit(n, 80, h_mix(rng.uniform(0.05, 0.3)), 1200 + trial)
        for g in (line_graph(n), *_route_graphs(rng, n, trial)):
            routed = carry(c, g)
            assert edge_legal(routed, g), (trial, g.name)
            assert verify_equivalence(c, routed, "unitary").equivalent, (trial, g.name)
            if routed.cnot_count <= expand_templates(merge_delete_h(c), g).cnot_count:
                assert route_universal(c, g)[0] == routed, (trial, g.name)


def test_each_h_of_a_carry_route_reads_the_parity_it_reads_in_the_input():
    # The residual holds every qubit of the next H run alone on one wire,
    # so the k-th H of the route reads the mask the k-th H of the
    # H-reduced input reads, on whichever wire its qubit was freed on;
    # every rotation lands on the input's parity, and the route ends on
    # the input's wires, with no output permutation.
    moved = 0
    for n, seed in ((6, 1), (9, 2), (16, 3)):
        c = random_universal_circuit(n, 300, h_mix(0.15), seed)
        reduced = merge_delete_h(c)
        for g in (line_graph(n), random_connected_graph(n, 0.3, seed)):
            read, on = [], []
            for circuit in (reduced, carry(c, g)):
                wires = [1 << q for q in range(n)]
                terms, hs = _read_path_sum(circuit.gates, wires)
                read.append((wires, [mask for _, mask in hs],
                             {m: a for m, a in terms.items() if not a.is_zero}))
                on.append([q for q, _ in hs])
            assert read[0][1], (n, g.name)
            assert read[1] == read[0], (n, g.name)
            moved += on[1] != on[0]
    assert moved, "every H ran on its own qubit's wire"


def assert_partial_fixup(a: BinaryMatrix, g, stop: frozenset) -> int:
    """Check `_rowcol_up_to(aᵀ, a⁻¹, g, stop)`: the fixup F is edge-legal,
    F followed by the residual M applies `a`, and each stop qubit q sits
    alone on a wire w of its own in M (row q is e_w, column w is e_q, the
    w distinct), so an H on wire w commutes with M as an H on q; a full
    stop set leaves M a permutation matrix.  Returns how many stop qubits
    were freed on another wire than their own.  The residual's inverse
    comes back too, with no Gauss-Jordan pass."""
    fixup, residual, residual_inv = _rowcol_up_to(a.transpose(), invert(a), g, stop)
    key = (g.name, sorted(stop))
    assert edge_legal(fixup, g), key
    assert multiply(residual, simulate_cnot_circuit(fixup)) == a, key
    n = a.dim
    assert multiply(residual, residual_inv) == BinaryMatrix.identity(n), key
    pivot = {}
    for q in stop:
        w = residual.rows[q].bit_length() - 1
        assert residual.rows[q] == 1 << w, (key, q)
        column = [(row >> w) & 1 for row in residual.rows]
        assert column == [int(p == q) for p in range(n)], (key, q)
        pivot[q] = w
    assert len(set(pivot.values())) == len(stop), key
    if len(stop) == n:
        assert sorted(residual.rows) == [1 << w for w in range(n)], key
    return sum(w != q for q, w in pivot.items())


def test_a_partial_fixup_leaves_the_stop_wires_unit_in_the_residual():
    # Random stop sets on small and 16-node graphs; some stop qubits are
    # freed on another wire than their own.
    rng = random.Random(43)
    graphs = [line_graph(7), grid_graph(3, 3), complete_graph(6),
              random_connected_graph(10, 0.3, 2), *structured_graphs()]
    moved = 0
    for g in graphs:
        n = g.node_count
        for seed in range(6):
            a = random_invertible(n, 31 * n + seed)
            moved += assert_partial_fixup(a, g, frozenset(rng.sample(range(n), rng.randint(1, n))))
    assert moved, "every stop qubit was freed on its own wire"


def test_a_phase_free_segment_takes_the_fixup_alone():
    # With no phase terms no network runs: the CNOT+RZ body's output is the
    # fixup of the linear part itself, up to the stop set or in full.
    rng = random.Random(47)
    graphs = [*structured_graphs(), random_connected_graph(9, 0.3, 4), random_connected_graph(14, 0.2, 6)]
    for g in graphs:
        n = g.node_count
        for seed in range(3):
            a = random_invertible(n, 37 * n + seed)
            s = SumOverPaths(PhasePolynomial(n, {}), a)
            stop = frozenset(rng.sample(range(n), rng.randint(1, n)))
            got = _synthesize_up_to(s, g, stop)
            want = _rowcol_up_to(a.transpose(), invert(a), g, stop)
            assert got[0].gates == want[0].gates and got[1:] == want[1:], (g.name, seed)
            circuit, residual, residual_inv = _synthesize_up_to(s, g)
            assert circuit.gates == _synthesize_rowcol(a, invert(a), g).gates, (g.name, seed)
            assert residual == residual_inv == BinaryMatrix.identity(n), (g.name, seed)


def test_a_partial_fixup_with_only_cut_vertex_stop_wires_on_a_line_is_exact():
    # On line(n) every middle wire is a cut vertex, so while two or more
    # stop qubits are left only an end wire may go next.
    for n in (4, 5, 7, 9):
        g = line_graph(n)
        for seed in range(8):
            a = random_invertible(n, 53 * n + seed)
            for stop in (range(1, n - 1), {n // 2}, {1, n - 2}):
                assert_partial_fixup(a, g, frozenset(stop))


def test_a_16_wire_route_is_certified_by_path_sum():
    # Above the dense unitary cap, a route is proven exactly, not only
    # checked for edge legality.
    for g in structured_graphs():
        c = random_universal_circuit(16, 600, h_mix(0.1), 5)
        routed, _, cert = run(c, g)
        assert cert == ("pathsum", True), g.name
        assert routed.count("h") > 0


def test_structured_routes_need_no_more_cnots_than_template_expansion():
    # Toffoli chains, QAOA layers and an adder cut into short segments,
    # where the template ladders are strong; each route is proven by path
    # sum at 16 wires.
    for c in (toffoli_chain(16, 12, 2), qaoa(16, 24, 2, 1), cuccaro_adder(7)):
        for g in structured_graphs():
            routed, _ = route_universal(c, g)
            templates = expand_templates(merge_delete_h(c), g)
            assert routed.cnot_count <= templates.cnot_count, g.name
            assert certify(c, routed, g) == ("pathsum", True), g.name
            if carry(c, g).cnot_count > templates.cnot_count:
                assert emit_circuit(routed) == emit_circuit(templates), g.name


def test_structured_routes_after_cleanup_keep_their_cnot_counts():
    # Goldens: CNOTs after cancel_pass on each of structured_graphs().  Three
    # of the nine cells (every circuit on tokyo20's prefix) return the
    # template expansion; a candidate that lowers a cell re-records it.
    want = {
        "qaoa": [440, 412, 1171],
        "toffoli_chain": [1448, 1737, 2790],
        "cuccaro_adder": [321, 469, 163],
    }
    for name, c in (("qaoa", qaoa(16, 24, 2, 1)), ("toffoli_chain", toffoli_chain(16, 48, 1)),
                    ("cuccaro_adder", cuccaro_adder(7))):
        got = [cancel_pass(route_universal(c, g)[0]).cnot_count for g in structured_graphs()]
        assert got == want[name], name


def test_a_route_runs_once_and_one_over_the_template_bound_returns_the_expansion(monkeypatch):
    # On K8, and for structured circuits on tokyo20's prefix and grid(4,4),
    # whose segments are short, carrying the residual costs more than the
    # ladders do: the route is built once and the template expansion of the
    # H-reduced input is returned in its place, byte for byte.
    real = universal._route
    routes = []
    monkeypatch.setattr(universal, "_route", lambda *args: routes.append(real(*args)) or routes[-1])
    probs = {"cnot": 0.8, "s": 0.04, "t": 0.03, "tdg": 0.03, "h": 0.1}
    tokyo16, grid, _ = structured_graphs()
    cases = [(random_universal_circuit(8, 60, probs, 2), complete_graph(8))]
    cases += [(c, tokyo16) for c in (toffoli_chain(16, 48, 2), qaoa(16, 24, 2, 1), cuccaro_adder(7))]
    cases += [(c, grid) for c in (toffoli_chain(16, 12, 2), qaoa(16, 12, 2, 1))]
    for c, g in cases:
        routes.clear()
        routed = route_universal(c, g)[0]
        templates = expand_templates(merge_delete_h(c), g)
        assert len(routes) == 1, g.name
        assert routes[0].cnot_count > templates.cnot_count, g.name
        assert emit_circuit(routed) == emit_circuit(templates), g.name


def test_route_wire_count_mismatch():
    with pytest.raises(ValueError, match="^task has 3 qubits but graph has 4 nodes$"):
        route_universal(Circuit(3), line_graph(4))


def test_unitary_oracle_agrees_with_gf2():
    # A CNOT-only circuit's unitary must be the basis permutation of its matrix.
    from steinersynth import simulate_cnot_circuit

    c = Circuit(3, (cnot(0, 1), cnot(2, 1), cnot(0, 2)))
    m = simulate_cnot_circuit(c)
    u = circuit_unitary(c)
    for x in range(8):
        y = 0
        for i in range(3):
            bit = 0
            for j in range(3):
                bit ^= m.bit(i, j) & (x >> j)
            y |= (bit & 1) << i
        assert abs(u[y, x] - 1) < 1e-12


# Digests of partition_segments output on fixed seeds: any change to how the
# scan is done must reproduce them byte for byte.
PARTITION_GOLDEN = [
    (0.02, 1, 70, "2117f9d217ad339a6a105d54b8dbbd228cdb66b8fbd30587f52a47bc1a393159"),
    (0.1, 2, 309, "8fc29c11ba268da7e97840ed9f38389915e3468f4afaf4fc521da3a513d826f3"),
    (0.1, 3, 317, "05743ffeed10dd51d9329d6510730e53ba07efb7b04da6de16fc179bb6fc8986"),
]


def _mixed_circuit(n: int, count: int, p_h: float, seed: int) -> Circuit:
    probs = {"s": 0.02, "t": 0.02, "sdg": 0.01, "tdg": 0.01, "h": p_h, "cnot": 0.94 - p_h}
    return random_universal_circuit(n, count, probs, seed)


def _assert_partition_digest(n: int, p_h: float, seed: int, count: int, digest: str) -> None:
    segs = partition_segments(_mixed_circuit(n, 2000, p_h, seed))
    text = "".join(s.kind + "\n" + emit_circuit(Circuit(n, s.gates)) for s in segs)
    assert len(segs) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("p_h,seed,count,digest", PARTITION_GOLDEN,
                         ids=[f"{p_h}-{seed}" for p_h, seed, _, _ in PARTITION_GOLDEN])
def test_partition_golden_digest(p_h, seed, count, digest):
    _assert_partition_digest(16, p_h, seed, count, digest)


def test_partition_golden_digest_at_72_wires():
    # Each wire mask spans several machine words here.
    _assert_partition_digest(
        72, 0.3, 4, 522, "987fde47214c7897dd29f8cfc7092d0dfa68f02202b804291cc4ba7572ce466a")


def _blocks(segs):
    return [(s.kind, s.gates) for s in segs]


_T = Angle(1, 8)


def test_partition_blocker_first_in_block_forward():
    # cnot(0,1) crosses h(3) but the next block opens with a blocker, so that
    # (larger) block is no candidate and the gate stays put.
    c = Circuit(4, (cnot(0, 1), h(3), cnot(1, 2), cnot(2, 3)))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (cnot(0, 1),)),
        ("h_block", (h(3),)),
        ("cnot_block", (cnot(1, 2), cnot(2, 3))),
    ]


def test_partition_blocker_first_in_block_backward():
    c = Circuit(4, (cnot(2, 3), cnot(1, 2), h(3), cnot(0, 1)))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (cnot(2, 3), cnot(1, 2))),
        ("h_block", (h(3),)),
        ("cnot_block", (cnot(0, 1),)),
    ]


def test_partition_blocker_block_candidate_forward():
    # rz on the control commutes ahead of the blocker, so the blocker's block
    # is a candidate; the mover goes in at its front and its old block, now
    # empty, is dropped.
    c = Circuit(4, (cnot(0, 1), h(3), rz(_T, 0), cnot(1, 2), cnot(2, 3)))
    assert _blocks(partition_segments(c)) == [
        ("h_block", (h(3),)),
        ("cnot_block", (cnot(0, 1), rz(_T, 0), cnot(1, 2), cnot(2, 3))),
    ]


def test_partition_blocker_block_candidate_backward():
    # Backward moves append at the end of the target block.
    c = Circuit(4, (cnot(2, 3), cnot(1, 2), rz(_T, 0), h(3), cnot(0, 1)))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (cnot(2, 3), cnot(1, 2), rz(_T, 0), cnot(0, 1))),
        ("h_block", (h(3),)),
    ]


def test_partition_tie_goes_to_earlier_block_forward():
    c = Circuit(5, (
        rz(_T, 0), h(1), cnot(1, 2), cnot(2, 1), h(2), cnot(2, 3), cnot(3, 2),
    ))
    assert _blocks(partition_segments(c)) == [
        ("h_block", (h(1),)),
        ("cnot_block", (rz(_T, 0), cnot(1, 2), cnot(2, 1))),
        ("h_block", (h(2),)),
        ("cnot_block", (cnot(2, 3), cnot(3, 2))),
    ]


def test_partition_tie_goes_to_earlier_block_backward():
    # Moving backward, the earlier of two equal blocks is the farther one.
    c = Circuit(5, (
        cnot(3, 2), cnot(2, 3), h(2), cnot(2, 1), cnot(1, 2), h(1), rz(_T, 0),
    ))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (cnot(3, 2), cnot(2, 3), rz(_T, 0))),
        ("h_block", (h(2),)),
        ("cnot_block", (cnot(2, 1), cnot(1, 2))),
        ("h_block", (h(1),)),
    ]


def test_partition_crosses_emptied_block():
    # The backward pass empties the last CNOT block; the forward pass then
    # walks across it without treating it as a destination.
    c = Circuit(3, (cnot(0, 1), h(2), cnot(0, 1), rz(_T, 0), h(2), cnot(0, 1)))
    segs = partition_segments(c)
    assert all(s.gates for s in segs)
    assert _blocks(segs) == [
        ("h_block", (h(2),)),
        ("cnot_block", (cnot(0, 1), cnot(0, 1), rz(_T, 0), cnot(0, 1))),
        ("h_block", (h(2),)),
    ]


def test_partition_grows_backward_first():
    # Backward first, rz(2) and then rz(3) join cnot(2, 3) in the first
    # block, which is then the largest, so the forward pass moves nothing.
    # Forward first, cnot(2, 3) and rz(2) would cross h(0) and h(1) into the
    # last block.
    c = Circuit(4, (cnot(2, 3), h(0), rz(_T, 2), h(1), cnot(3, 0), rz(_T, 3)))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (cnot(2, 3), rz(_T, 2), rz(_T, 3))),
        ("h_block", (h(0),)),
        ("h_block", (h(1),)),
        ("cnot_block", (cnot(3, 0),)),
    ]
    _assert_partition_matches_reference(c)


def _commutes_by_sets(a, b):
    """The original set-intersection rule, kept as the reference."""
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind == "cnot" and b.kind == "cnot":
        return a.control == b.control or a.target == b.target
    if "h" in (a.kind, b.kind):
        return False
    if a.kind == "rz" and b.kind == "rz":
        return True
    rz_gate, cx = (a, b) if a.kind == "rz" else (b, a)
    return rz_gate.target == cx.control


def test_commutes_matches_set_rule_exhaustively():
    gates = all_gates_up_to(3)
    for a in gates:
        for b in gates:
            assert commutes(a, b) == _commutes_by_sets(a, b), f"{a} vs {b}"


def reference_partition_segments(c):
    """The `commutes`-based partition_segments the integer scans replaced,
    kept verbatim as the oracle but for its visiting order: backward over
    the current order, then forward over the order that pass leaves,
    reversed."""
    gates = c.gates
    # blocks[i] holds gate uids; kinds[i] alternates between block kinds.
    kinds: list[str] = []
    blocks: list[list[int]] = []
    where: list[int] = []  # uid -> index of the block holding it
    for g in gates:
        kind = "h_block" if g.kind == "h" else "cnot_block"
        if not kinds or kinds[-1] != kind:
            kinds.append(kind)
            blocks.append([])
        blocks[-1].append(len(where))
        where.append(len(blocks) - 1)

    def destination(v, bi: int, gi: int, forward: bool) -> int:
        """Largest CNOT block v reaches before its first blocker.

        A block counts once its first gate in scan order has been passed, so
        empty blocks never count and the blocker's block only with a
        commuting gate ahead of the blocker.  Ties go to the earlier block.
        """
        own = blocks[bi]
        if not all(commutes(v, gates[u]) for u in (own[gi + 1 :] if forward else own[:gi])):
            return bi
        best, best_key = bi, (len(own), -bi)
        for ob in range(bi + 1, len(blocks)) if forward else range(bi - 1, -1, -1):
            blk = blocks[ob]
            for k, u in enumerate(blk if forward else reversed(blk)):
                if not commutes(v, gates[u]):
                    return best
                if k == 0 and kinds[ob] == "cnot_block" and (len(blk), -ob) > best_key:
                    best, best_key = ob, (len(blk), -ob)
        return best

    def relocate(movers: list[int], forward: bool) -> None:
        for uid in movers:
            bi = where[uid]
            gi = blocks[bi].index(uid)
            best = destination(gates[uid], bi, gi, forward)
            if best == bi:
                continue
            del blocks[bi][gi]
            if forward:
                blocks[best].insert(0, uid)
            else:
                blocks[best].append(uid)
            where[uid] = best

    movers = [uid for uid, g in enumerate(gates) if g.kind != "h"]
    relocate(movers, forward=False)
    relocate([uid for blk in blocks for uid in blk if gates[uid].kind != "h"][::-1], forward=True)

    return [
        Segment(kind, tuple(gates[uid] for uid in blk))
        for kind, blk in zip(kinds, blocks)
        if blk
    ]


def _assert_partition_matches_reference(c):
    assert _blocks(partition_segments(c)) == _blocks(reference_partition_segments(c)), (
        emit_circuit(c))


def test_partition_matches_reference_on_gate_pairs_around_an_h():
    # Every ordered pair of 3-wire gates, on either side of an H and doubled
    # up around it, so each inlined rule meets each kind of gate as a block
    # head and behind one.
    gates = all_gates_up_to(3)
    for a in gates:
        for b in gates:
            for q in range(3):
                _assert_partition_matches_reference(Circuit(3, (a, h(q), b)))
                _assert_partition_matches_reference(Circuit(3, (a, b, h(q), b, a)))


def test_partition_matches_reference_on_random_small_circuits():
    rng = random.Random(2024)
    angles = [Angle(1, 8), Angle(1, 4), Angle(7, 8)]
    for _ in range(3000):
        n = rng.randint(1, 6)
        p_h = rng.random()
        gates = []
        for _ in range(rng.randint(0, 60)):
            if rng.random() < p_h:
                gates.append(h(rng.randrange(n)))
            elif n > 1 and rng.random() < 0.7:
                gates.append(cnot(*rng.sample(range(n), 2)))
            else:
                gates.append(rz(rng.choice(angles), rng.randrange(n)))
        _assert_partition_matches_reference(Circuit(n, tuple(gates)))


@pytest.mark.parametrize("p_h,seed", [(0.02, 11), (0.1, 12)])
def test_partition_matches_reference_at_route16_size(p_h, seed):
    _assert_partition_matches_reference(_mixed_circuit(16, 2000, p_h, seed))


@pytest.mark.parametrize("n,count,p_h,seed", [
    (72, 3000, 0.1, 21), (80, 3000, 0.3, 22), (16, 10000, 0.3, 23), (72, 10000, 0.3, 24),
])
def test_partition_matches_reference_when_wide_or_long(n, count, p_h, seed):
    # Above 64 wires a mask spans several machine words; long circuits at a
    # high H share have many small blocks that gates leave and enter.
    _assert_partition_matches_reference(_mixed_circuit(n, count, p_h, seed))


def test_partition_forgets_a_blocker_that_has_left_a_block():
    # In the backward pass rz(1) and then cnot(2, 3) leave the middle CNOT
    # block for the first one.  cnot(2, 3) would have blocked rz(3), which
    # comes later: it now crosses the middle block into the first, the
    # largest.  A mask of the middle block's gates before the pass would
    # stop rz(3) there; the pass's mask holds only the gates that stayed.
    c = Circuit(4, (
        cnot(1, 0), cnot(2, 1), cnot(0, 3), rz(_T, 3), h(0),
        rz(_T, 0), cnot(1, 0), rz(_T, 1), cnot(2, 3), h(0),
        rz(_T, 2), rz(_T, 3),
    ))
    assert _blocks(partition_segments(c)) == [
        ("cnot_block", (
            cnot(1, 0), cnot(2, 1), cnot(0, 3), rz(_T, 3), rz(_T, 1), cnot(2, 3),
            rz(_T, 2), rz(_T, 3),
        )),
        ("h_block", (h(0),)),
        ("cnot_block", (rz(_T, 0), cnot(1, 0))),
        ("h_block", (h(0),)),
    ]
    _assert_partition_matches_reference(c)


def test_partition_rejects_a_wire_the_cleanup_cannot_read():
    # Segment growth reads the cleanup's wire pairs, which hold wires below
    # 2**31 only, so it fails on a larger wire as the cleanup does, before
    # any mask is built.
    for gate in (h(2**31), cnot(2**31, 0), cnot(0, 2**31), rz(_T, 2**31)):
        c = Circuit(2**31 + 1, (cnot(0, 1), gate))
        with pytest.raises(OverflowError):
            cancel_pass(c)
        with pytest.raises(OverflowError):
            partition_segments(c)


# tracemalloc peak of the gate-by-gate scans, before the mask tests, on
# the circuit below (Python 3.11).
_PARTITION_PEAK_BEFORE_MASKS = 3_583_928


def test_partition_memory_stays_linear_in_the_gates():
    # Each pass keeps one mask per block and one list of the gates it
    # visits: the peak stays within 1.5 times the scans' on 20,000 gates
    # over 72 wires with many small blocks.
    c = _mixed_circuit(72, 20000, 0.3, 7)
    tracemalloc.start()
    try:
        partition_segments(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _PARTITION_PEAK_BEFORE_MASKS, peak
