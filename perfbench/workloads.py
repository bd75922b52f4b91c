"""Workload definitions: suite graphs, seeded instances, timed compile bodies,
untimed advantage references and independent checks.

The compile bodies call steinersynth only through attributes looked up at
call time (``ss.synthesize_constrained``, ``bench.baseline_pmh_templates``),
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import steinersynth as ss
from steinersynth import bench

from . import check, gen

SUITE = ["tokyo20", "bristlecone72", "grid5x4", "line20", "rand20-0.1", "rand20-0.3", "rand20-1.0"]
DEVICES = {"tokyo20", "bristlecone72"}
ROUTE_WIDTH = 16
ROUTE_GATES = 2000
ROUTE_P_H = (0.02, 0.1)  # H share: one circuit of each per graph

# Per workload: (fewest passes a run makes, percentile reported as
# compile_s.tail).  A resynth pass holds 96 instances on 20-node graphs and
# 4 on bristlecone72; four passes give 400, so p90 has forty beyond it and
# lies among the slowest 20-node instances, clear of the 72-qubit class,
# whose few distinct instances move any percentile inside it from seed to
# seed.  A route16 run compiles 14 instances, too few for any percentile
# above the median to have ten beyond it.  A paper-compare run compiles 57,
# and its percentiles with ten beyond them fall on the edge between two
# graphs' clusters of compile times, where they jump from seed to seed.
# Both drop the tail: their compile_s.tail repeats the median.
WORKLOADS = {"resynth": (4, 90), "route16": (1, 50), "paper-compare": (1, 50)}
# Instances per pass of each suite graph.  Several per graph keep each
# cnots.<graph> steady from seed to seed.  Compile times cluster by graph;
# the paper-compare counts put the median inside the largest cluster
# (rand20-0.1 and grid5x4) rather than on the edge between two clusters.
COPIES = {
    "resynth": dict.fromkeys(SUITE, 8) | {"bristlecone72": 2},
    "paper-compare": {"tokyo20": 8, "bristlecone72": 1, "grid5x4": 12, "line20": 12,
                      "rand20-0.1": 12, "rand20-0.3": 6, "rand20-1.0": 6},
}


@dataclass
class Graph:
    key: str  # suite graph name, the suffix of its cnots.* metric
    n: int
    edges: frozenset  # the benchmark's own edge set, used by the checks
    program: object  # the same graph as a steinersynth ConnectivityGraph


@dataclass
class Instance:
    graph: Graph
    kind: str  # "matrix", "phase", "route" or "compare"
    data: tuple  # benchmark-owned input (see gen)
    program_input: object  # the same input as steinersynth objects
    text: str  # canonical text of the input, for the input digest
    reference_cnots: int | None = None  # advantage baseline, filled in untimed
    outputs: list[str] = field(default_factory=list)  # texts from the first pass


def _arch_file(root: Path, name: str) -> Path:
    return root / "src" / "steinersynth" / "architectures" / f"{name}.txt"


def suite_graphs(root: Path, width: int | None = None) -> list[Graph]:
    """The seven suite graphs, or their `width`-node versions (device
    prefixes, a 4x4 grid, a shorter line, random graphs on `width` nodes).

    The random graphs are drawn once from a fixed key, like a device, so
    that each cnots.rand* metric always names the same graph; the workload
    seed draws only the instances."""
    graphs = []
    for key in SUITE:
        if key in DEVICES:
            n, edges = gen.parse_edge_file(_arch_file(root, key).read_text())
            if width is None:
                program = ss.builtin_architecture(key)
                if program.edges != edges:
                    raise ValueError(f"{key}: program and benchmark edge sets differ")
                graphs.append(Graph(key, n, edges, program))
                continue
            n, edges = width, gen.prefix_edges(edges, width)
        elif key == "grid5x4":
            n, edges = (20, gen.grid_edges(5, 4)) if width is None else (16, gen.grid_edges(4, 4))
        elif key == "line20":
            n = width or 20
            edges = gen.line_edges(n)
        else:
            n = width or 20
            p = float(key.split("-")[1])
            edges = gen.connected_graph(gen.rng_for("graph", key, n), n, p)
        graphs.append(Graph(key, n, edges, ss.ConnectivityGraph(n, edges, name=f"{key}/{n}")))
    return graphs


def _matrix(rows) -> object:
    return ss.BinaryMatrix(len(rows), rows)


def _phase_target(phase, rows) -> object:
    terms = {m: ss.Angle(a.numerator, a.denominator) for m, a in phase.items()}
    return ss.SumOverPaths(ss.PhasePolynomial(len(rows), terms), _matrix(rows))


def _matrix_text(rows) -> str:
    return " ".join(map(str, rows))


def workload_graphs(name: str, root: Path) -> list[Graph]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return suite_graphs(root, ROUTE_WIDTH if name == "route16" else None)


def build(name: str, root: Path, seed: int) -> list[Instance]:
    """One pass worth of instances of a workload."""
    graphs = workload_graphs(name, root)
    out = []
    for g in graphs:
        if name == "route16":
            for p_h in ROUTE_P_H:
                gates = gen.universal_circuit(
                    gen.rng_for(seed, name, g.key, p_h), g.n, ROUTE_GATES, p_h)
                text = gen.circuit_text(g.n, gates)
                out.append(Instance(g, "route", (gates,), ss.parse_circuit(text), text))
            continue
        copies = COPIES[name][g.key]
        kinds = ["matrix", "phase"] if name == "resynth" else ["compare"]
        for kind in [kind for _ in range(copies) for kind in kinds]:
            rng = gen.rng_for(seed, name, g.key, kind, len(out))
            if kind == "phase":
                phase, rows = gen.phase_instance(rng, g.n, g.n)
                text = _matrix_text(rows) + "".join(
                    f" {m}:{a}" for m, a in sorted(phase.items()))
                out.append(Instance(g, kind, (phase, rows), _phase_target(phase, rows), text))
            else:
                rows = gen.invertible_matrix(rng, g.n)
                out.append(Instance(g, kind, (rows,), _matrix(rows), _matrix_text(rows)))
    return out


def compile_instance(inst: Instance) -> tuple[list, bool]:
    """The timed body: what the matching CLI command (or bench trial) does,
    minus file I/O.  Returns the output circuits and the program's own
    verdict."""
    g, x = inst.graph.program, inst.program_input
    if inst.kind == "matrix":  # steinersynth synth-cnot
        circuit, report = ss.synthesize_constrained(x, g)
        circuit = ss.cancel_pass(circuit)
        report.cnot_count = circuit.cnot_count
        report.depth = circuit.depth()
        ok = ss.simulate_cnot_circuit(circuit) == x and ss.edge_legal(circuit, g)
        return [circuit], ok
    if inst.kind == "phase":  # steinersynth synth-phase --phase --matrix
        circuit, report = ss.synthesize_cnot_rz(x, g)
        circuit = ss.cancel_pass(circuit)
        report.cnot_count = circuit.cnot_count
        report.rz_count = circuit.count("rz")
        report.depth = circuit.depth()
        back = ss.extract_sum_over_paths(circuit)
        ok = back.phase == x.phase and back.linear == x.linear and ss.edge_legal(circuit, g)
        return [circuit], ok
    if inst.kind == "route":  # steinersynth route; 16 wires is above its unitary cap
        routed, report = ss.route_universal(x, g)
        routed = ss.cancel_pass(routed)
        report.cnot_count = routed.cnot_count
        report.rz_count = routed.count("rz")
        report.h_count = routed.count("h")
        report.depth = routed.depth()
        return [routed], ss.edge_legal(routed, g)
    # bench sparseness / bench arch trial body, cnot mode with cleanup
    ours, _ = ss.synthesize_constrained(x, g)
    ours = ss.cancel_pass(ours)
    base = bench.baseline_pmh_templates(x, g, True)
    ok = (
        ss.simulate_cnot_circuit(ours) == x
        and ss.simulate_cnot_circuit(base) == x
        and ss.edge_legal(ours, g)
        and ss.edge_legal(base, g)
    )
    return [ours, base], ok


def reference(inst: Instance):
    """Untimed synthesize-then-route baseline for advantage_geomean on the
    workloads whose compile body has none: synthesis ignoring connectivity,
    template expansion, cleanup.  Phase instances get none: cleaning their
    expansion (about 10^5 gates at 72 qubits) would take longer than the run
    measures."""
    g, x = inst.graph.program, inst.program_input
    if inst.kind == "matrix":
        return ss.cancel_pass(ss.expand_templates(ss.pmh_synthesize(x), g))
    if inst.kind == "route":
        return ss.cancel_pass(ss.expand_templates(x, g))
    return None


def independent_check(inst: Instance, texts: list[str], seed: int) -> bool:
    """Check output texts against the benchmark-owned input."""
    expected = None
    for text in texts:
        n, gates = check.parse_circuit(text)
        if n != inst.graph.n or not check.edges_legal(gates, inst.graph.edges):
            return False
        if inst.kind in ("matrix", "compare"):
            ok = check.gf2_simulate(n, gates) == inst.data[0]
        elif inst.kind == "phase":
            ok = check.sum_over_paths(n, gates) == inst.data
        else:
            if expected is None:
                expected = check.final_state(n, inst.data[0], seed)
            ok = check.same_state(expected, check.final_state(n, gates, seed))
        if not ok:
            return False
    return True


def cnot_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("cnot "))


def count_metrics(instances: list[Instance]) -> dict[str, float]:
    """cnots, depth, cnots.<graph> and advantage_geomean from first-pass outputs."""
    per_graph = dict.fromkeys(SUITE, 0)
    compared = dict.fromkeys(SUITE, 0)  # constrained CNOTs of instances with a baseline
    base_graph = dict.fromkeys(SUITE, 0)
    depth = 0
    for inst in instances:
        key = inst.graph.key
        ours = cnot_count(inst.outputs[0])
        per_graph[key] += ours
        depth += check.depth(*check.parse_circuit(inst.outputs[0]))
        base = cnot_count(inst.outputs[1]) if inst.kind == "compare" else inst.reference_cnots
        if base is not None:
            compared[key] += ours
            base_graph[key] += base
    out = {"cnots": sum(per_graph.values()), "depth": depth}
    for key in SUITE:
        out[f"cnots.{key}"] = per_graph[key]
    logs = [math.log(base_graph[k] / compared[k]) for k in SUITE]
    out["advantage_geomean"] = math.exp(sum(logs) / len(logs))
    return out
