import hashlib
import random

import pytest

from steinersynth import cancel_pass, emit_circuit, random_invertible
from steinersynth.bench import random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.cnot_synth import expand_templates, pmh_synthesize
from steinersynth.gf2 import simulate_cnot_circuit
from steinersynth.graphs import builtin_architecture, grid_graph, line_graph, random_connected_graph
from steinersynth.optimizer import DEFAULT_WINDOW
from steinersynth.universal import commutes
from steinersynth.verify import verify_equivalence
from conftest import all_gates_up_to


def reference_cancel_pass(c: Circuit, window: int = DEFAULT_WINDOW) -> Circuit:
    """The windowed full rescan cancel_pass replaced, kept as the oracle:
    every round rescans every surviving gate and rebuilds the gate list."""
    gates = list(c.gates)
    while True:
        changed = False
        removed = [False] * len(gates)
        for i in range(len(gates)):
            if removed[i]:
                continue
            g = gates[i]
            j, steps = i + 1, 0
            while j < len(gates) and steps < window:
                if removed[j]:
                    j += 1
                    continue
                other = gates[j]
                steps += 1
                if g.kind in ("cnot", "h") and other == g:
                    removed[i] = removed[j] = True
                    changed = True
                    break
                if g.kind == "rz" and other.kind == "rz" and other.target == g.target:
                    merged = g.angle + other.angle
                    removed[j] = True
                    changed = True
                    if merged.is_zero:
                        removed[i] = True
                        break
                    gates[i] = g = rz(merged, g.target)
                    j += 1
                    continue
                if not commutes(g, other):
                    break
                j += 1
        gates = [x for k, x in enumerate(gates) if not removed[k]]
        if not changed:
            return Circuit(c.num_qubits, tuple(gates))


def test_adjacent_cnot_pair_cancels():
    c = Circuit(2, (cnot(0, 1), cnot(0, 1)))
    assert len(cancel_pass(c)) == 0


def test_rz_angles_merge_mod_full_turn():
    c = Circuit(1, (rz(Angle(1, 8), 0), rz(Angle(7, 8), 0)))
    assert len(cancel_pass(c)) == 0
    c2 = Circuit(1, (rz(Angle(1, 8), 0), rz(Angle(1, 8), 0)))
    out = cancel_pass(c2)
    assert out.gates == (rz(Angle(1, 4), 0),)


def test_cancel_through_commuting_gate():
    c = Circuit(3, (cnot(0, 1), cnot(0, 2), cnot(0, 1)))
    out = cancel_pass(c)
    assert out.gates == (cnot(0, 2),)
    assert verify_equivalence(c, out, "unitary").equivalent


def test_blocked_pair_stays():
    c = Circuit(2, (cnot(0, 1), cnot(1, 0), cnot(0, 1)))
    assert len(cancel_pass(c)) == 3


def test_h_pair_cancels_across_disjoint():
    c = Circuit(2, (h(0), cnot(1, 0), h(0)))
    assert len(cancel_pass(c)) == 3  # blocked: cnot touches wire 0
    c2 = Circuit(3, (h(0), cnot(1, 2), h(0)))
    assert cancel_pass(c2).gates == (cnot(1, 2),)


def test_monotone_and_idempotent():
    rng = random.Random(5)
    probs = {"cnot": 0.55, "s": 0.1, "t": 0.1, "sdg": 0.05, "tdg": 0.05, "h": 0.15}
    for trial in range(40):
        n = rng.randint(2, 5)
        c = random_universal_circuit(n, 120, probs, trial)
        once = cancel_pass(c)
        assert len(once) <= len(c)
        assert verify_equivalence(c, once, "unitary").equivalent
        assert cancel_pass(once) == once


def test_preserves_gf2_matrix_on_cnot_circuits():
    rng = random.Random(6)
    for trial in range(30):
        n = rng.randint(2, 10)
        gates = tuple(cnot(*rng.sample(range(n), 2)) for _ in range(60))
        c = Circuit(n, gates)
        out = cancel_pass(c)
        assert simulate_cnot_circuit(out) == simulate_cnot_circuit(c)


def _inverse(gates) -> list:
    return [rz(-g.angle, g.target) if g.kind == "rz" else g for g in reversed(gates)]


@pytest.mark.parametrize("window", [1, 2, 3, 4, 8, 32])
def test_matches_full_rescan_reference(window):
    # Mirrored cases append the inverse, so cancellations nest deeply and
    # take many rounds; the others exercise blockers and partial merges.
    probs = {"cnot": 0.45, "s": 0.1, "t": 0.1, "sdg": 0.1, "tdg": 0.1, "h": 0.15}
    rng = random.Random(1000 + window)
    for case in range(250):
        n = rng.randint(2, 4)
        c = random_universal_circuit(n, rng.randint(1, 40), probs, rng.randrange(1 << 30))
        if case % 2:
            c = c.extended(_inverse(c.gates))
        assert cancel_pass(c, window) == reference_cancel_pass(c, window), (window, case)


@pytest.mark.parametrize("window", [1, 2, 32])
def test_inlined_rules_match_commutes_on_three_wires(window):
    # cancel_pass writes universal.commutes out per kind of scanned gate;
    # every (g, o) pair on three wires, then g or its inverse, takes each
    # rule: cancel or merge through o, block at o, or stop without a match.
    gates = all_gates_up_to(3)
    for g in gates:
        for o in gates:
            for last in (g, *_inverse([g])):
                c = Circuit(3, (g, o, last))
                assert cancel_pass(c, window) == reference_cancel_pass(c, window), (g, o, last)


def _ladder_inputs() -> list[Circuit]:
    """Synthesize-then-route circuits, as in the paper comparison: PMH at
    several section widths, then relay ladders on sparse graphs."""
    graphs = [line_graph(8), grid_graph(3, 3), random_connected_graph(10, 0.3, 4)]
    out = [
        expand_templates(pmh_synthesize(random_invertible(g.node_count, seed), section=w), g)
        for g in graphs
        for seed, w in ((1, 1), (2, 2), (3, 3))
    ]
    probs = {"cnot": 0.6, "s": 0.1, "t": 0.1, "h": 0.2}
    out.append(expand_templates(random_universal_circuit(8, 60, probs, 9), graphs[0]))
    return out


@pytest.mark.parametrize("window", [4, 32])
def test_matches_reference_on_template_ladders(window):
    inputs = _ladder_inputs()
    assert any(g.kind == "h" for g in inputs[-1].gates)
    for k, c in enumerate(inputs):
        out = cancel_pass(c, window)
        assert len(out) < len(c), k
        assert out == reference_cancel_pass(c, window), k


@pytest.mark.parametrize("arch, seed, digest", [
    ("tokyo20", 1, "92333ad713e159a5d8888df2ced89fa35cd8ea18939e70ff195db9b80e6d43a9"),
    ("tokyo20", 2, "360212525ba62c19c4a21ca0bb8f0f8d7eccbf4386a7ad9e7fc3e52bb30a676d"),
    ("tokyo20", 3, "7ae7ccc33ba5b5031460507204265b75a3bf275386acd6fb155f72bd28ead2c9"),
    ("bristlecone72", 1, "b532376b7486eef1d248b41a3eb1a5b2e9da3c0bc6c922c1f80795ef1d9797d9"),
])
def test_golden_template_ladder_digests(arch, seed, digest):
    # Recorded with the full-rescan cancel_pass on the synthesize-then-route
    # baseline, whose relay ladders give cleanup the most to remove.
    g = builtin_architecture(arch)
    out = cancel_pass(expand_templates(pmh_synthesize(random_invertible(g.node_count, seed)), g))
    assert hashlib.sha256(emit_circuit(out).encode()).hexdigest() == digest
