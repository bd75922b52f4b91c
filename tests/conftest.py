"""Shared fixtures: small reference instances with independently known costs."""

from __future__ import annotations

import itertools
from operator import attrgetter

import pytest

from steinersynth import BinaryMatrix, ConnectivityGraph, builtin_architecture, random_connected_graph
from steinersynth.circuits import Angle, Circuit, cnot, h, rz
from steinersynth.cnot_synth import _pmh_pairs, expand_templates
from steinersynth.graphs import grid_graph
from steinersynth.optimizer import cancel_pass


@pytest.fixture
def demo6_graph() -> ConnectivityGraph:
    """6-qubit demo coupling: a 2x3 loop arrangement with one chord."""
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 5), (4, 5)}
    return ConnectivityGraph(6, frozenset(edges), name="demo6")


@pytest.fixture
def demo6_matrix() -> BinaryMatrix:
    """Invertible 6x6 transformation used in the worked-example tests."""
    return BinaryMatrix.from_rows(
        [
            [1, 1, 0, 1, 1, 0],
            [0, 0, 1, 1, 0, 1],
            [1, 0, 1, 0, 1, 0],
            [1, 1, 0, 1, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, 0, 1],
        ]
    )


@pytest.fixture
def grid12_graph() -> ConnectivityGraph:
    """12-node, 17-edge test graph whose optimal Steiner weights are known."""
    edges_1based = [
        (1, 2), (2, 3), (3, 6), (6, 5), (2, 5), (1, 4), (5, 4), (4, 7),
        (5, 8), (6, 9), (7, 8), (8, 9), (7, 10), (8, 11), (9, 12),
        (10, 11), (11, 12),
    ]
    return ConnectivityGraph(
        12, frozenset((u - 1, v - 1) for u, v in edges_1based), name="grid12"
    )


def pmh_at(a: BinaryMatrix, section: int | None) -> Circuit:
    """Full-connectivity elimination of `a` at one section width, or plain
    Gaussian elimination for None: the CNOTs of `cnot_synth._pmh_pairs`."""
    return Circuit(a.dim, tuple(cnot(c, t) for c, t in _pmh_pairs(a, section)))


def _fewest_cnots(candidates, cleanup: bool) -> Circuit:
    """The candidate with the fewest CNOTs, each one cleaned first when
    `cleanup` is set; the first wins ties: how the matrix baselines picked
    their circuit when every candidate was built as gates."""
    if cleanup:
        candidates = map(cancel_pass, candidates)
    return min(candidates, key=attrgetter("cnot_count"))


def routed_oracle(a: BinaryMatrix, g: ConnectivityGraph, widths, cleanup: bool) -> Circuit:
    """Reference matrix baseline: every width's elimination built as gates,
    expanded by `expand_templates`, and picked by `_fewest_cnots`."""
    return _fewest_cnots(
        [Circuit(a.dim, expand_templates(pmh_at(a, w), g).gates) for w in widths], cleanup
    )


def all_gates_up_to(n):
    """Every CNOT and H on n wires, and RZ by 1/8 and by 1/4 turn on each wire."""
    out = []
    for c, t in itertools.permutations(range(n), 2):
        out.append(cnot(c, t))
    for q in range(n):
        out.append(h(q))
        out.append(rz(Angle(1, 8), q))
        out.append(rz(Angle(1, 4), q))
    return out


def commutes(a, b) -> bool:
    """Reference commutation test for two gates (never true when the
    matrices differ).

    Rules: disjoint supports always commute; CNOTs sharing a control or
    sharing a target commute; an RZ commutes with anything diagonal on its
    wire and with a CNOT through the CNOT's control; H commutes only on
    disjoint wires.  `optimizer.cancel_pass` scans by one rule on each
    gate's wire pair that stands for these, and
    `universal.partition_segments` by wire-mask tests, and their tests pin
    each against this oracle.
    """
    aq, bq = a.qubits, b.qubits
    if aq[0] not in bq and aq[-1] not in bq:
        return True
    if a.kind == "cnot" and b.kind == "cnot":
        return a.control == b.control or a.target == b.target
    if "h" in (a.kind, b.kind):
        return False
    if a.kind == "rz" and b.kind == "rz":
        return True
    rz_gate, cx = (a, b) if a.kind == "rz" else (b, a)
    return rz_gate.target == cx.control


def brute_force_steiner_weight(g: ConnectivityGraph, terminals: set[int]) -> int:
    """Independent oracle: with unit weights, the optimum is |T ∪ X| - 1 over
    the smallest Steiner-node set X whose union with T induces a connected
    subgraph."""
    adj = {i: set() for i in range(g.node_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected(sub: set[int]) -> bool:
        start = next(iter(sub))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u] & sub:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen == sub

    if len(terminals) == 1:
        return 0
    others = sorted(set(range(g.node_count)) - terminals)
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            if connected(terminals | set(extra)):
                return len(terminals) + k - 1
    raise AssertionError("graph is disconnected")


def oracle_graphs():
    """The device graphs, grid(5,4), line(20), grid(8,9) and random graphs
    at sparseness 0.1, 0.3 and 1.0."""
    names = ("tokyo20", "bristlecone72", "acorn19", "grid(5,4)", "line(20)")
    graphs = [builtin_architecture(name) for name in names] + [grid_graph(8, 9)]
    graphs += [
        random_connected_graph(n, s, seed)
        for s in (0.1, 0.3, 1.0)
        for n, seed in ((20, 1), (12, 2))
    ]
    return graphs


def random_terminal_sets(g, rng, count):
    """Seeded terminal sets of every size, including one node and all nodes."""
    n = g.node_count
    sets = [[rng.randrange(n)], list(range(n))]
    while len(sets) < count:
        sets.append(rng.sample(range(n), rng.choice([2, 3, rng.randint(2, n)])))
    return sets
