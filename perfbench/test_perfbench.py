"""Tests of the benchmark's own code: seeded generators, independent
checkers and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import steinersynth as ss  # noqa: E402

from perfbench import check, gen, workloads  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402


def _emit_parse(circuit):
    return check.parse_circuit(ss.emit_circuit(circuit))


@pytest.mark.parametrize("name", ["resynth", "route16", "paper-compare"])
def test_instances_repeat_under_a_seed(name):
    first = [i.text for i in workloads.build(name, ROOT, 3)]
    again = [i.text for i in workloads.build(name, ROOT, 3)]
    other = [i.text for i in workloads.build(name, ROOT, 4)]
    assert first == again
    assert first != other


def test_generators_are_deterministic_and_valid():
    def draw(seed):
        rng = gen.rng_for(seed, "t")
        return (gen.invertible_matrix(rng, 12), gen.phase_instance(rng, 8, 8),
                gen.connected_graph(rng, 10, 0.2), gen.universal_circuit(rng, 6, 50, 0.1))

    a, b = draw(5), draw(5)
    assert a == b and a != draw(6)
    rows, (phase, linear), edges, circuit = a
    assert gen.gf2_rank(rows, 12) == 12 and gen.gf2_rank(linear, 8) == 8
    assert len(phase) == 8 and 0 not in phase
    assert gen.is_connected(10, edges)
    assert len(circuit) == 50


def test_gf2_check_rejects_a_dropped_cnot():
    g = ss.grid_graph(3, 3)
    rows = gen.invertible_matrix(gen.rng_for(1, "gf2"), 9)
    circuit, _ = ss.synthesize_constrained(ss.BinaryMatrix(9, rows), g)
    n, gates = _emit_parse(circuit)
    assert check.gf2_simulate(n, gates) == rows
    for k in (0, len(gates) // 2, len(gates) - 1):
        assert check.gf2_simulate(n, gates[:k] + gates[k + 1:]) != rows


def test_sum_over_paths_check_rejects_a_changed_angle():
    g = ss.line_graph(6)
    phase, rows = gen.phase_instance(gen.rng_for(2, "sop"), 6, 6)
    target = ss.SumOverPaths(
        ss.PhasePolynomial(6, {m: ss.Angle(a.numerator, a.denominator) for m, a in phase.items()}),
        ss.BinaryMatrix(6, rows),
    )
    circuit, _ = ss.synthesize_cnot_rz(target, g)
    n, gates = _emit_parse(circuit)
    assert check.sum_over_paths(n, gates) == (phase, rows)
    k = next(i for i, gate in enumerate(gates) if gate[0] == "rz")
    bad = list(gates)
    bad[k] = ("rz", (gates[k][1] + Fraction(1, 8)) % 1, gates[k][2])
    assert check.sum_over_paths(n, bad) != (phase, rows)
    assert check.sum_over_paths(n, gates[:k] + gates[k + 1:]) != (phase, rows)


def test_edge_check_rejects_an_off_graph_cnot():
    edges = gen.line_edges(5)
    assert check.edges_legal([("cnot", 0, 1), ("cnot", 3, 2), ("h", 4)], edges)
    assert not check.edges_legal([("cnot", 0, 1), ("cnot", 0, 2)], edges)


def _naive_apply(state, n, gates):
    """Gate-at-a-time reference simulation."""
    idx = np.arange(1 << n)
    for g in gates:
        if g[0] == "cnot":
            c, t = g[1], g[2]
            state = state[np.where((idx >> c) & 1, idx ^ (1 << t), idx)]
        elif g[0] == "rz":
            state = np.where((idx >> g[2]) & 1, state * np.exp(2j * np.pi * float(g[1])), state)
        else:
            q = g[1]
            low = state[idx & ~(1 << q)]
            high = state[idx | (1 << q)]
            state = np.where((idx >> q) & 1, low - high, low + high) / np.sqrt(2.0)
    return state


def test_statevector_matches_gate_at_a_time_simulation():
    n = 5
    gates = gen.universal_circuit(gen.rng_for(3, "sv"), n, 120, 0.15)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert np.allclose(check.apply_circuit(psi, n, gates), _naive_apply(psi, n, gates))


def test_statevector_check_rejects_a_moved_h_and_a_dropped_cnot():
    n = 6
    source = gen.universal_circuit(gen.rng_for(4, "route"), n, 80, 0.1)
    routed, _ = ss.route_universal(ss.parse_circuit(gen.circuit_text(n, source)), ss.line_graph(n))
    _, gates = _emit_parse(routed)
    expected = check.final_state(n, source, seed=1)
    assert check.same_state(expected, check.final_state(n, gates, seed=1))
    # Move the first H past the next gate on its wire.
    i = next(k for k, g in enumerate(gates) if g[0] == "h")
    q = gates[i][1]
    j = next(k for k in range(i + 1, len(gates)) if q in gates[k][1:])
    moved = gates[:i] + gates[i + 1:j + 1] + [gates[i]] + gates[j + 1:]
    assert not check.same_state(expected, check.final_state(n, moved, seed=1))
    k = next(k for k, g in enumerate(gates) if g[0] == "cnot")
    assert not check.same_state(expected, check.final_state(n, gates[:k] + gates[k + 1:], seed=1))


def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 6.0, 8.0, 3, 0],
    ]
    assert self_times(spans) == {"root": 3.0, "a": 2.0, "b": 3.0, "c": 2.0}


def test_tracer_wraps_every_import_site_and_restores_them():
    import steinersynth.cnot_synth as cnot_synth
    import steinersynth.graphs as graphs
    import steinersynth.phase_synth as phase_synth

    original = graphs.steiner_approx
    tracer = Tracer()
    tracer.install()
    try:
        assert cnot_synth.steiner_approx is graphs.steiner_approx is phase_synth.steiner_approx
        assert graphs.steiner_approx is not original
        rows = gen.invertible_matrix(gen.rng_for(5, "trace"), 9)
        tracer.span("instance", ss.synthesize_constrained, ss.BinaryMatrix(9, rows), ss.grid_graph(3, 3))
    finally:
        tracer.uninstall()
    assert graphs.steiner_approx is original and cnot_synth.steiner_approx is original
    trees = tracer.calls["graphs.steiner_approx"]
    assert trees > 0 and tracer.counts["graphs.steiner_approx.under_synth"] == trees
    assert tracer.calls["cnot_synth.synthesize_constrained"] == 1
    own = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own.values()) == pytest.approx(total)
