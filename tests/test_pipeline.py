import dataclasses
import json

import pytest
from click.testing import CliRunner

from steinersynth import (
    cnot_synth, emit_circuit, emit_matrix, pipeline, random_invertible, universal,
)
from steinersynth.bench import baseline_pmh_templates, bench_sparseness, random_universal_circuit
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.cli import main
from steinersynth.cnot_synth import (
    SynthesisReport,
    _arc_gates,
    _expand_ids,
    _pmh_pairs,
    expand_templates,
    section_widths,
    synthesize_constrained,
)
from steinersynth.gf2 import BinaryMatrix, SingularMatrixError, check_invertible
from steinersynth.graphs import (
    ConnectivityGraph,
    builtin_architecture,
    complete_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
)
from steinersynth.optimizer import cancel_pass
from steinersynth.phase_synth import extract_sum_over_paths, synthesize_cnot_rz
from steinersynth.pipeline import certify, run
from steinersynth.universal import merge_delete_h, partition_segments, route_universal
from steinersynth.unitary import UNITARY_QUBIT_CAP
from conftest import pmh_at, routed_oracle

PROBS = {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}


def phase_task(n: int, seed: int):
    source = random_universal_circuit(n, 40, {**PROBS, "cnot": 0.8, "h": 0.0}, seed)
    return extract_sum_over_paths(source)


def drop_last(c: Circuit) -> Circuit:
    return Circuit(c.num_qubits, c.gates[:-1])


@pytest.mark.parametrize("n", [5, UNITARY_QUBIT_CAP - 1, UNITARY_QUBIT_CAP, UNITARY_QUBIT_CAP + 1])
def test_run_certifies_each_task_kind(n):
    # Routes are proven by path sum at every width, below and above the
    # dense unitary cap alike.
    g = line_graph(n)
    routed_mode = "pathsum"
    tasks = {
        "gf2": random_invertible(n, 3),
        "sum-over-paths": phase_task(n, 4),
        routed_mode: random_universal_circuit(n, 40, PROBS, 5),
    }
    for mode, task in tasks.items():
        for method in ("steiner", "templates"):
            circuit, report, cert = run(task, g, method)
            assert cert == (mode, True)
            assert report.cnot_count == circuit.cnot_count
            assert report.depth == circuit.depth()
            assert report.method.startswith("baseline_") == (method == "templates")


def eager_dict(method: str, graph_name: str, circuit: Circuit, elapsed_ms: float) -> dict:
    """The report dict with every value computed from the circuit up front."""
    cnots, rzs, hs = circuit.count("cnot"), circuit.count("rz"), circuit.count("h")
    return {
        "method": method,
        "graph": graph_name,
        "counts": {"cnot": cnots, "rz": rzs, "h": hs, "total": cnots + rzs + hs},
        "depth": circuit.depth(),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def five_wire_tasks():
    return [random_invertible(5, 3), phase_task(5, 4), random_universal_circuit(5, 40, PROBS, 5)]


def synthesized(g):
    """(circuit, report) of each public synthesizer and of `run` on each
    five-wire task, every method that takes it, with and without cleanup."""
    a, s, c = five_wire_tasks()
    out = [synthesize_constrained(a, g), synthesize_cnot_rz(s, g), route_universal(c, g)]
    for task in (a, s, c):
        methods = ("steiner", "pmh", "templates") if task is a else ("steiner", "templates")
        for method in methods:
            for cleanup in (True, False):
                out.append(run(task, g, method, cleanup)[:2])
    return out


@pytest.fixture
def depth_calls(monkeypatch):
    """The circuits `Circuit.depth` is called on, in call order."""
    calls = []
    depth = Circuit.depth

    def counted(self):
        calls.append(self)
        return depth(self)

    monkeypatch.setattr(Circuit, "depth", counted)
    return calls


def test_report_takes_four_values():
    assert [f.name for f in dataclasses.fields(SynthesisReport) if f.init] == [
        "method", "graph_name", "circuit", "elapsed_ms"
    ]
    report = SynthesisReport("steiner", "line(2)", Circuit(2, (cnot(0, 1),)), 1.5)
    assert repr(report) == "SynthesisReport(method='steiner', graph_name='line(2)', elapsed_ms=1.5)"


def test_depth_is_computed_once_and_only_when_read(depth_calls):
    # No synthesizer takes the depth of its circuit; the report takes it
    # from its circuit the first time it is read, and keeps it.
    results = synthesized(line_graph(5))
    assert depth_calls == []
    for circuit, report in results:
        assert report.circuit is circuit
        first = report.to_dict()
        assert depth_calls == [circuit]
        assert report.to_dict() == first and report.depth == first["depth"]
        assert depth_calls == [circuit]
        depth_calls.clear()


def test_an_assigned_count_or_depth_is_what_the_report_says(depth_calls):
    # A caller that cleans the circuit after synthesis may write the
    # cleaned circuit's values into the report, as the benchmark does.
    g = line_graph(5)
    a, s, c = five_wire_tasks()
    for circuit, report in (synthesize_constrained(a, g), synthesize_cnot_rz(s, g),
                            route_universal(c, g)):
        cleaned = cancel_pass(circuit)
        report.cnot_count = cleaned.cnot_count
        report.rz_count = cleaned.count("rz")
        report.h_count = cleaned.count("h")
        report.depth = cleaned.depth()
        assert report.to_dict() == eager_dict(report.method, g.name, cleaned, report.elapsed_ms)
        assert depth_calls == [cleaned, cleaned]  # the caller's, then the eager dict's
        depth_calls.clear()
    circuit, report = synthesize_constrained(a, g)
    report.depth, report.cnot_count = 7, 1
    assert (report.depth, report.cnot_count) == (7, 1)
    counts = report.to_dict()["counts"]
    assert counts == {"cnot": 1, "rz": 0, "h": 0, "total": 1}
    assert report.to_dict()["depth"] == 7
    assert depth_calls == []


def test_report_dict_is_the_eager_dict():
    # The same JSON, key order included, as when every value was copied
    # into the report at construction.
    g = line_graph(5)
    for circuit, report in synthesized(g):
        want = eager_dict(report.method, g.name, circuit, report.elapsed_ms)
        assert json.dumps(report.to_dict(), indent=2) == json.dumps(want, indent=2)


def test_run_rejects_unknown_methods():
    g = line_graph(4)
    with pytest.raises(ValueError, match="unknown method"):
        run(random_invertible(4, 1), g, "swap")
    with pytest.raises(ValueError, match="matrix task"):
        run(phase_task(4, 1), g, "pmh")
    with pytest.raises(TypeError):
        run("not a task", g)


@pytest.mark.parametrize("task_width, graph_width", [(5, 3), (3, 5)])
def test_run_rejects_a_task_of_another_width(task_width, graph_width):
    # Checked before any synthesis: a wider task would index past the graph,
    # and a narrower one would certify a circuit that ignores some nodes.
    g = line_graph(graph_width)
    tasks = [
        random_invertible(task_width, 3),
        phase_task(task_width, 4),
        random_universal_circuit(task_width, 40, PROBS, 5),
    ]
    message = f"task has {task_width} qubits but graph has {graph_width} nodes"
    for task in tasks:
        for method in ("steiner", "pmh", "templates"):
            with pytest.raises(ValueError, match=message):
                run(task, g, method)
    with pytest.raises(ValueError, match=message):
        baseline_pmh_templates(tasks[0], g)
    for method in ("steiner", "pmh", "templates"):
        with pytest.raises(TypeError, match="cannot synthesize a str"):
            run("not a task", g, method)


# Routed CNOTs of the pmh baseline on tokyo20, with and without cleanup.  At
# these seeds the width with the fewest elimination ops is not the width
# with the fewest routed CNOTs (it gives 669/721 and 695/737).
PMH_TOKYO20 = {(1000, True): 652, (1000, False): 704, (1007, True): 651, (1007, False): 709}


@pytest.mark.parametrize("seed,cleanup", sorted(PMH_TOKYO20))
def test_run_pmh_is_the_bench_baseline(seed, cleanup):
    # The section width is picked by routed CNOT count in one place, so
    # `synth-cnot --baseline pmh` and the bench's baseline column agree.
    g = builtin_architecture("tokyo20")
    a = random_invertible(20, seed)
    circuit, report, cert = run(a, g, "pmh", cleanup)
    assert circuit == baseline_pmh_templates(a, g, cleanup)
    assert circuit.cnot_count == report.cnot_count == PMH_TOKYO20[seed, cleanup]
    assert cert == ("gf2", True)
    assert report.method == "baseline_pmh"


def test_certify_rejects_a_dropped_cnot():
    g = builtin_architecture("tokyo20")
    a = random_invertible(20, 8)
    circuit, _, cert = run(a, g)
    assert cert == ("gf2", True)
    assert certify(a, drop_last(circuit), g) == ("gf2", False)


def test_run_certifies_a_wide_cnot_only_circuit_over_gf2():
    # A CNOT-only route is compared over GF(2) at any width, not edges only.
    g = line_graph(12)
    c = random_universal_circuit(12, 200, {"cnot": 1.0}, 6)
    routed, _, cert = run(c, g)
    assert cert == ("gf2", True)
    assert routed.is_cnot_only()
    assert certify(c, drop_last(routed), g) == ("gf2", False)


def test_certify_rejects_a_changed_angle():
    g = line_graph(5)
    s = phase_task(5, 9)
    circuit, _, _ = run(s, g)
    k = next(i for i, gate in enumerate(circuit.gates) if gate.kind == "rz")
    gates = list(circuit.gates)
    gates[k] = rz(gates[k].angle + Angle(1, 8), gates[k].target)
    assert certify(s, Circuit(5, tuple(gates)), g) == ("sum-over-paths", False)


def test_certify_rejects_a_non_edge_cnot_and_a_wrong_unitary():
    g = line_graph(5)
    c = random_universal_circuit(5, 40, PROBS, 10)
    routed, _, _ = run(c, g)
    # cnot(0, 2) cancels itself, so only the edge check can catch it: the
    # path sum proves the unitary right.
    detour = routed.extended((cnot(0, 2), cnot(0, 2)))
    assert certify(c, detour, g) == ("pathsum", False)
    assert certify(c, routed.extended((h(3),)), g) == ("unitary", False)
    # Above the unitary cap only the edges are checked.
    wide = random_universal_circuit(UNITARY_QUBIT_CAP + 1, 40, PROBS, 11)
    g_wide = line_graph(UNITARY_QUBIT_CAP + 1)
    routed_wide, _, _ = run(wide, g_wide)
    assert certify(wide, routed_wide.extended((h(3),)), g_wide) == ("edges", True)
    assert certify(wide, routed_wide.extended((cnot(0, 2),)), g_wide) == ("edges", False)


@pytest.fixture
def faulty_cleanup(monkeypatch):
    """Make the pipeline's cleanup drop the last gate of every circuit."""
    monkeypatch.setattr(pipeline, "cancel_pass", drop_last)


def test_cli_exits_1_when_verification_fails(tmp_path, faulty_cleanup):
    matrix = tmp_path / "m.txt"
    matrix.write_text(emit_matrix(random_invertible(5, 2)))
    phase = tmp_path / "p.txt"
    phase.write_text("11000 1/8\n01100 3/4\n")
    circuit = tmp_path / "c.txt"
    circuit.write_text(emit_circuit(random_universal_circuit(5, 30, PROBS, 3)))
    out = tmp_path / "out.txt"
    for args in (
        ["synth-cnot", "--matrix", str(matrix)],
        ["synth-phase", "--phase", str(phase), "--matrix", str(matrix)],
        ["route", "--circuit", str(circuit)],
    ):
        res = CliRunner().invoke(main, [*args, "--arch", "line(5)", "--out", str(out)])
        assert res.exit_code == 1, args
        assert isinstance(res.exception, SystemExit)
        assert "verification FAILED" in res.output
        assert not out.exists()


@pytest.mark.parametrize("mode", ["cnot", "cnot_rz"])
def test_bench_row_reads_0_when_verification_fails(faulty_cleanup, mode):
    lines = bench_sparseness(n=5, trials=2, seed=3, sparseness_values=(0.5,), mode=mode,
                             support_terms=5).splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 2
    assert all(r.endswith(",0") for r in rows)
    assert "# excluded_unverified 2" in lines
    assert "# mean sparseness=0.5 (no verified trials)" in lines


PMH_GRAPHS = [
    line_graph(5), line_graph(9), grid_graph(3, 4), grid_graph(4, 4),
    builtin_architecture("tokyo20"), builtin_architecture("bristlecone72"),
    random_connected_graph(8, 0.3, 2), random_connected_graph(17, 0.2, 5),
    random_connected_graph(33, 0.1, 7),
]


@pytest.mark.parametrize("g", PMH_GRAPHS, ids=lambda g: f"{g.name}-{g.node_count}")
def test_pmh_candidates_are_the_expanded_elimination_at_every_width(g):
    # One candidate per section width 2 .. max(2, floor(log2 n)), each the
    # template expansion of partitioned elimination at that width, built
    # from the graph's own edge gates.  The baseline expands each width as
    # pair ids (`_expand_ids`); `_arc_gates` reads them as those gates.
    n = g.node_count
    widths = list(range(2, max(2, n.bit_length() - 1) + 1))
    assert list(section_widths(n)) == widths
    for seed in (1, 2):
        a = random_invertible(n, seed)
        assert pipeline._synthesize(a, g, "pmh", False)[1] == "baseline_pmh"
        for w in widths:
            got = _arc_gates(_expand_ids(_pmh_pairs(a, w), g), g)
            want = expand_templates(pmh_at(a, w), g)
            assert got == want.gates, w
            assert all(gate is g._arcs[gate.qubits] for gate in got), w
        # The templates baseline is the same expansion of plain elimination.
        got, name = pipeline._synthesize(a, g, "templates", False)
        assert name == "baseline_templates"
        want = expand_templates(pmh_at(a, None), g)
        assert got.num_qubits == n
        assert got.gates == want.gates
        assert all(gate is g._arcs[gate.qubits] for gate in got.gates)


def star_graph(n: int) -> ConnectivityGraph:
    return ConnectivityGraph(n, frozenset((0, v) for v in range(1, n)), name=f"star({n})")


ORACLE_GRAPHS = [
    line_graph(1), line_graph(2), line_graph(7), grid_graph(3, 4), star_graph(9),
    random_connected_graph(12, 0.3, 3), random_connected_graph(20, 0.1, 1), complete_graph(8),
    builtin_architecture("tokyo20"), builtin_architecture("bristlecone72"),
]


def assert_same_circuit(got: Circuit, want: Circuit, g: ConnectivityGraph) -> None:
    assert got == want
    assert emit_circuit(got) == emit_circuit(want)
    assert all(gate is g._arcs[gate.qubits] for gate in got.gates)


@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: f"{g.name}-{g.node_count}")
def test_matrix_baselines_equal_the_gate_oracle(g):
    # The matrix baselines clean and compare their candidates as int arrays
    # and build gates for the winner alone; they emit exactly what cleaning
    # and comparing every candidate as a gate circuit emits.
    n = g.node_count
    seeds = (1,) if n > 20 else (1, 2)
    tasks = [BinaryMatrix.identity(n)] + [random_invertible(n, seed) for seed in seeds]
    for a in tasks:
        for cleanup in (True, False):
            want = routed_oracle(a, g, section_widths(n), cleanup)
            assert_same_circuit(baseline_pmh_templates(a, g, cleanup), want, g)
            assert_same_circuit(run(a, g, "pmh", cleanup)[0], want, g)
            want = routed_oracle(a, g, (None,), cleanup)
            assert_same_circuit(run(a, g, "templates", cleanup)[0], want, g)


# Two section widths whose routed candidates tie.  On line(9) at seed 16
# both clean up to 201 CNOTs, from 279 and 231 before cleanup; on grid(3,3)
# at seed 8 both clean up to 131 CNOTs, from 143 each.
TIES = [(line_graph(9), 16, [201, 201], [279, 231]), (grid_graph(3, 3), 8, [131, 131], [143, 143])]


@pytest.mark.parametrize("g,seed,cleaned,raw", TIES, ids=[f"{t[0].name}-{t[1]}" for t in TIES])
def test_the_first_width_wins_a_tie(g, seed, cleaned, raw):
    n = g.node_count
    a = random_invertible(n, seed)
    candidates = [expand_templates(pmh_at(a, w), g) for w in section_widths(n)]
    assert [cancel_pass(c).cnot_count for c in candidates] == cleaned
    assert [len(c) for c in candidates] == raw
    assert cancel_pass(candidates[0]) != cancel_pass(candidates[1])
    assert baseline_pmh_templates(a, g, True) == cancel_pass(candidates[0])
    # Without cleanup the candidates are compared by expanded length.
    assert baseline_pmh_templates(a, g, False) == candidates[raw.index(min(raw))]


def test_run_pmh_rejects_a_singular_matrix():
    g = builtin_architecture("tokyo20")
    rows = list(random_invertible(20, 3).rows)
    rows[7] = rows[2]
    singular = BinaryMatrix(20, tuple(rows))
    calls = [lambda m=m: run(singular, g, m) for m in ("steiner", "pmh", "templates")]
    for call in (*calls, lambda: baseline_pmh_templates(singular, g)):
        with pytest.raises(SingularMatrixError):
            call()


@pytest.fixture
def invertibility_checks(monkeypatch):
    """Count the `check_invertible` calls made by the pipeline and by the
    CNOT synthesizers."""
    seen = []

    def counting(m):
        seen.append(m)
        check_invertible(m)

    monkeypatch.setattr(pipeline, "check_invertible", counting)
    monkeypatch.setattr(cnot_synth, "check_invertible", counting)
    return seen


def test_each_matrix_task_is_checked_once_and_no_fixup_is(invertibility_checks):
    # `run` checks a matrix once under every method.  The linear fixup of a
    # CNOT+RZ synthesis, A times the inverse of the network's map, is
    # invertible by construction, so neither a route's segments nor
    # synthesize_cnot_rz pay for an elimination on it.
    g = line_graph(6)
    a = random_invertible(6, 3)
    for method in ("steiner", "pmh", "templates"):
        invertibility_checks.clear()
        run(a, g, method)
        assert invertibility_checks == [a], method
    invertibility_checks.clear()
    routed, _, cert = run(random_universal_circuit(6, 60, PROBS, 5), g)
    assert cert.ok and routed.count("h") > 0
    synthesize_cnot_rz(phase_task(6, 4), g)
    assert invertibility_checks == []


def test_a_route_resynthesizes_each_segment_through_the_public_synthesizer(monkeypatch):
    # Each CNOT+RZ segment of a route is one synthesis of its sum over
    # paths in the emitted frame, and `run` names its method after the
    # report of the synthesizer it called.
    calls = []
    real = universal._synthesize_up_to

    def recorded(s, g, stop=None):
        calls.append((s, stop))
        return real(s, g, stop)

    monkeypatch.setattr(universal, "_synthesize_up_to", recorded)
    g = line_graph(6)
    c = random_universal_circuit(6, 120, PROBS, 7)
    segments = [seg for seg in partition_segments(merge_delete_h(c)) if seg.kind == "cnot_block"]
    _, report, cert = run(c, g)
    assert cert.ok and report.method == "route"
    # The first segment is read on the original wires, as its own sum over
    # paths; every fixup but the last stops at the next H run's qubits.
    calls.clear()
    universal._route(partition_segments(merge_delete_h(c)), g)
    assert len(calls) == len(segments) > 1
    assert calls[0][0] == extract_sum_over_paths(Circuit(6, segments[0].gates))
    assert [stop is None for _, stop in calls] == [False] * (len(segments) - 1) + [True]


    def renamed(task, graph):
        circuit, report = synthesize_cnot_rz(task, graph)
        report.method = "renamed"
        return circuit, report

    monkeypatch.setattr(pipeline, "synthesize_cnot_rz", renamed)
    assert run(phase_task(6, 4), g)[1].method == "renamed"
