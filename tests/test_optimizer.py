import hashlib
import random
from itertools import count, islice, product

import numpy as np
import pytest

from steinersynth import cancel_pass, emit_circuit, random_invertible
from steinersynth.bench import random_universal_circuit
from steinersynth.circuits import Angle, Circuit, Gate, cnot, h, rz
from steinersynth.cnot_synth import expand_templates, pmh_synthesize
from steinersynth.gf2 import simulate_cnot_circuit
from steinersynth.graphs import builtin_architecture, grid_graph, line_graph, random_connected_graph
from steinersynth.optimizer import DEFAULT_WINDOW, _decode, _first_round
from steinersynth.verify import verify_equivalence
from conftest import all_gates_up_to, commutes, pmh_at


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
    # cancel_pass scans by one wire-pair rule that stands for the reference
    # `commutes`; every (g, o) pair on three wires, then g or its inverse,
    # takes each outcome: cancel or merge through o, block at o, or stop
    # without a match.
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
        expand_templates(pmh_at(random_invertible(g.node_count, seed), w), g)
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


def first_scans(c: Circuit, window: int) -> list[tuple[int, bool]]:
    """Oracle for the first round: each gate's scan on the unmodified circuit
    by the rules of `commutes`, as (last position examined, whether the scan
    ends in a cancel or merge there)."""
    gates = c.gates
    out = []
    for i, g in enumerate(gates):
        seen, event = i, False
        for j in range(i + 1, min(i + window, len(gates) - 1) + 1):
            other, seen = gates[j], j
            if g.kind == "rz":
                event = other.kind == "rz" and other.target == g.target
            else:
                event = other == g
            if event or not commutes(g, other):
                break
        out.append((seen, event))
    return out


@pytest.mark.parametrize("window", [0, 1, 2, 3, 7, 32, 100])
def test_first_round_matches_a_scan_of_the_unmodified_circuit(window):
    probs = {"cnot": 0.5, "s": 0.1, "t": 0.1, "sdg": 0.05, "tdg": 0.05, "h": 0.2}
    rng = random.Random(2000 + window)
    for case in range(60):
        n = rng.randint(2, 5)
        c = random_universal_circuit(n, rng.randint(0, 70), probs, rng.randrange(1 << 30))
        if case % 3 == 0:
            c = c.extended(_inverse(c.gates))
        stop, event = _first_round(*_decode(list(c.gates)), window)
        assert list(zip(stop.tolist(), event.tolist())) == first_scans(c, window), (window, case)
    # long enough that the gates left after offset 1 fill several chunks
    c = random_universal_circuit(8, 1500, probs, window)
    stop, event = _first_round(*_decode(list(c.gates)), window)
    assert list(zip(stop.tolist(), event.tolist())) == first_scans(c, window)


@pytest.mark.parametrize("window", [0, 1, 2, 32])
def test_tiny_circuits_match_reference(window):
    for n in (1, 2, 3):
        assert cancel_pass(Circuit(n), window) == Circuit(n)
    for g in all_gates_up_to(3):
        c = Circuit(3, (g,))
        assert cancel_pass(c, window) == reference_cancel_pass(c, window) == c
    two = all_gates_up_to(2)
    for g in two:
        for o in two:
            c = Circuit(2, (g, o))
            assert cancel_pass(c, window) == reference_cancel_pass(c, window), (g, o)


def test_window_longer_than_the_circuit():
    probs = {"cnot": 0.5, "s": 0.1, "t": 0.1, "sdg": 0.05, "tdg": 0.05, "h": 0.2}
    rng = random.Random(71)
    for case in range(80):
        c = random_universal_circuit(3, rng.randint(1, 12), probs, rng.randrange(1 << 30))
        if case % 2:
            c = c.extended(_inverse(c.gates))
        for window in (len(c) - 1, len(c), len(c) + 1, 10**6):
            assert cancel_pass(c, window) == reference_cancel_pass(c, window), (case, window)


@pytest.mark.parametrize("window", [1, 2, 5, DEFAULT_WINDOW])
def test_partner_at_window_and_one_past(window):
    # Between the pair sit distinct gates the first one commutes past, so
    # its scan meets no blocker and stops at the end of its window.
    pairs = [
        (cnot(0, 1), cnot(0, 1), lambda w: cnot(0, w)),  # shared control
        (h(0), h(0), lambda w: h(w)),  # other wires
        (rz(Angle(1, 8), 0), rz(Angle(1, 4), 0), lambda w: cnot(0, w)),  # RZ on the control
    ]
    for g, partner, filler in pairs:
        for distance in (window, window + 1):
            c = Circuit(window + 3, (g, *map(filler, range(2, distance + 1)), partner))
            stop, event = _first_round(*_decode(list(c.gates)), window)
            assert (int(stop[0]), bool(event[0])) == (
                (distance, True) if distance == window else (window, False))
            out = cancel_pass(c, window)
            assert out == reference_cancel_pass(c, window)
            assert len(out) == len(c) - (2 if g.kind != "rz" else 1) * (distance == window)


@pytest.mark.parametrize("window", [1, 2, 3, DEFAULT_WINDOW])
def test_rz_chains_and_h_runs(window):
    for m in range(1, 20):
        chain = Circuit(2, (rz(Angle(1, 8), 0),) * m)
        out = cancel_pass(chain, window)
        assert out == reference_cancel_pass(chain, window)
        assert out.gates == (() if m % 8 == 0 else (rz(Angle(m, 8), 0),))
        # RZs on the control commute past the CNOTs between them
        woven = Circuit(3, tuple(g for _ in range(m) for g in (rz(Angle(1, 8), 0), cnot(0, 1 + m % 2))))
        assert cancel_pass(woven, window) == reference_cancel_pass(woven, window), m
        run = Circuit(2, (h(0),) * m)
        assert cancel_pass(run, window).gates == (h(0),) * (m % 2)
        split = Circuit(2, tuple(g for _ in range(m) for g in (h(0), h(1), h(1), h(0))))
        assert cancel_pass(split, window) == reference_cancel_pass(split, window) == Circuit(2)


@pytest.mark.parametrize("window", [1, 2, 4, DEFAULT_WINDOW])
def test_nested_zipper_ladders(window):
    # Each cancellation exposes the next pair, so every rung takes a round
    # and each removal must requeue the gate before it.
    ladder = [cnot(q, q + 1) for q in range(6)] + [h(6), rz(Angle(1, 8), 6), h(6)]
    zipper = ladder + _inverse(ladder)
    nested = ladder[:3] + zipper + [cnot(0, 7), cnot(5, 7)] + zipper + _inverse(ladder[:3])
    interleaved = [g for pair in zip(zipper, [rz(Angle(1, 8), 8)] * len(zipper)) for g in pair]
    for gates in (zipper, zipper * 3, nested, interleaved, interleaved + _inverse(interleaved)):
        c = Circuit(9, tuple(gates))
        out = cancel_pass(c, window)
        assert out == reference_cancel_pass(c, window)
    assert cancel_pass(Circuit(9, tuple(zipper)), window) == Circuit(9)


# A rescan of gate g resumes at g's recorded stop.  Each family gives g,
# its partner, a filler on wire w >= 3, a blocker of g that cancels with
# its own copy, and a gate that g passes and that cancels with its own
# copy.  The fillers commute with every other gate of the family.
RESUME_FAMILIES = [
    (cnot(0, 1), cnot(0, 1), lambda w: cnot(0, w), h(1), h(2)),  # H on the target
    (h(0), h(0), h, cnot(0, 2), cnot(1, 2)),  # a CNOT on the wire
    (rz(Angle(1, 8), 0), rz(Angle(1, 4), 0), h, cnot(2, 0), h(2)),  # a CNOT onto the wire
]


def _removed_with_partner(g) -> int:
    return 1 if g.kind == "rz" else 2  # an RZ partner merges into g


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 32])
def test_resume_past_a_removed_blocker(window):
    # g's scan stops at a blocker, which then cancels with a copy further
    # on; the next round resumes g's scan at the removed stop and meets
    # g's partner beyond it.
    for g, partner, filler, blocker, _ in RESUME_FAMILIES:
        for before, between, after in product(range(4), range(3), range(4)):
            fill = map(filler, count(3))
            gates = (g, *islice(fill, before), blocker, *islice(fill, between), blocker,
                     *islice(fill, after), partner)
            c = Circuit(3 + before + between + after, gates)
            out = cancel_pass(c, window)
            assert out == reference_cancel_pass(c, window), (g, before, between, after)
            if between < window and before + between + after < window:
                assert len(out) == len(c) - 2 - _removed_with_partner(g)


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 32])
def test_resume_after_a_removal_inside_a_full_window(window):
    # g's first scan passes a cancelling pair and ends at the last gate of
    # its window, the removed pair's first gate when `at` is the window.
    # Once the pair is gone, g's partner sits exactly at the window or one
    # past it.
    for g, partner, filler, _, passed in RESUME_FAMILIES:
        for distance in (window, window + 1):
            fillers = list(map(filler, range(3, 2 + distance)))
            for at in range(1, window + 1):
                c = Circuit(2 + distance, (g, *fillers[:at - 1], passed, passed,
                                           *fillers[at - 1:], partner))
                stop, _ = _first_round(*_decode(list(c.gates)), window)
                assert int(stop[0]) == window
                out = cancel_pass(c, window)
                assert out == reference_cancel_pass(c, window), (g, distance, at)
                assert len(out) == len(c) - 2 - _removed_with_partner(g) * (distance == window)


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 32])
def test_merged_rz_resumes_in_the_next_round(window):
    # An RZ merges a copy and its scan goes on to a blocker or the end of
    # its window.  The blocker cancels later in the same round, so the next
    # round resumes the merged RZ at its stop, where it can merge again.
    t = Angle(1, 8)
    for blocker in (h(0), cnot(1, 0)):
        for before, between, after in product(range(3), range(3), range(3)):
            fill = (cnot(0, w) for w in count(2))
            gates = (rz(t, 0), *islice(fill, before), rz(t, 0), *islice(fill, between),
                     blocker, blocker, *islice(fill, after), rz(t, 0))
            c = Circuit(2 + before + between + after, gates)
            out = cancel_pass(c, window)
            assert out == reference_cancel_pass(c, window), (blocker, before, between, after)
            if window == DEFAULT_WINDOW:
                assert out.gates[0] == rz(Angle(3, 8), 0) and out.count("rz") == 1


def test_shared_and_distinct_equal_gate_objects():
    # Equal gates that are distinct objects, and one object at many
    # positions, must give the same result.
    probs = {"cnot": 0.6, "s": 0.1, "t": 0.1, "h": 0.2}
    rng = random.Random(83)
    repeats = 0
    for case in range(60):
        c = random_universal_circuit(4, rng.randint(1, 60), probs, rng.randrange(1 << 30))
        shared = {}
        gates = []
        for g in c.gates + tuple(_inverse(c.gates)):
            if rng.random() < 0.5:
                gates.append(shared.setdefault(g, g))
            else:
                gates.append(Gate(g.kind, g.qubits, g.angle))
        mixed = Circuit(4, tuple(gates))
        repeats += len(mixed) - len({id(g) for g in mixed.gates})
        out = cancel_pass(mixed)
        assert out == reference_cancel_pass(mixed)
        assert out == cancel_pass(Circuit(4, tuple(Gate(g.kind, g.qubits, g.angle) for g in gates)))
    assert repeats > 500


WIRE_MAX = 2**31 - 1  # the largest wire an np.intc holds


def test_code_round_trips_through_decode_for_every_kind():
    wires = [0, 1, 2, 5, 1 << 16, WIRE_MAX - 1, WIRE_MAX]
    gates, want = [], []
    for a in wires:
        gates += [h(a), rz(Angle(1, 8), a)]
        want += [(a, a), (a, -1)]
        for b in wires:
            if a != b:
                gates.append(cnot(a, b))
                want.append((a, b))
    first, last = _decode(gates)
    assert list(zip(first.tolist(), last.tolist())) == want
    assert (first.dtype, last.dtype) == (np.intc, np.intc)
    empty = _decode([])
    assert [len(x) for x in empty] == [0, 0]


@pytest.mark.parametrize("gate", [h(-1), cnot(0, -3), cnot(2**31, 0), rz(Angle(1, 4), 2**31), h(2**40)])
def test_decode_rejects_a_wire_an_intc_cannot_hold(gate):
    with pytest.raises(OverflowError):
        _decode([cnot(0, 1), gate])
