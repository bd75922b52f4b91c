import copy
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import steinersynth
from steinersynth import (
    ConnectivityGraph,
    builtin_architecture,
    complete_graph,
    emit_graph,
    line_graph,
    parse_graph,
    random_connected_graph,
    random_invertible,
    shortest_path,
    steiner_approx,
    steiner_exact,
)
from steinersynth.circuits import Circuit, cnot
from steinersynth.cnot_synth import (
    naive_swap_expand,
    plan_post_transpose,
    plan_pre_transpose,
    synthesize_constrained,
)
from steinersynth import graphs
from steinersynth.graphs import SteinerTree, _norm_edge, _preorder, grid_graph
from conftest import brute_force_steiner_weight, oracle_graphs, random_terminal_sets


class _UnionFind:
    """Union-find keeping the smallest member as representative."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo


def reference_steiner_approx(g, terminals, root=None):
    """The full-round steiner_approx the shortcuts replaced, kept as the
    oracle: every round runs the whole BFS and scans every sorted edge."""
    term_set = frozenset(terminals)
    if root is None:
        root = min(term_set)

    uf = _UnionFind(g.node_count)
    in_tree = set(term_set)
    tree_edges: set[tuple[int, int]] = set()
    components = len(term_set)

    while components > 1:
        # One BFS wave from every super-terminal simultaneously.
        comp = [-1] * g.node_count
        dist = [0] * g.node_count
        parent = [-1] * g.node_count
        queue = sorted(in_tree)
        for s in queue:
            comp[s] = uf.find(s)
        while queue:
            next_queue = []
            for u in queue:
                for v in g.neighbors(u):
                    if comp[v] < 0:
                        comp[v] = comp[u]
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        next_queue.append(v)
            queue = next_queue

        # Shortest collision between two distinct waves.
        best = None
        for u, v in g.sorted_edges():
            if comp[u] != comp[v]:
                length = dist[u] + dist[v] + 1
                key = (length, u, v)
                if best is None or key < best:
                    best = key
        assert best is not None, "connected graph must yield a collision"
        _, u, v = best

        path_nodes = []
        for end in (u, v):
            node = end
            chain = [node]
            while dist[node] > 0:
                node = parent[node]
                chain.append(node)
            path_nodes.extend(chain)
            for a, b in zip(chain, chain[1:]):
                tree_edges.add(_norm_edge(a, b))
        tree_edges.add(_norm_edge(u, v))

        for node in path_nodes[1:]:
            uf.union(path_nodes[0], node)
        in_tree.update(path_nodes)
        components -= 1

    return SteinerTree(g, term_set, root, frozenset(tree_edges))


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        ConnectivityGraph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        ConnectivityGraph(4, frozenset({(0, 1), (2, 3)}))  # disconnected
    with pytest.raises(ValueError):
        ConnectivityGraph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError, match="at least one node"):
        ConnectivityGraph(0, frozenset())
    with pytest.raises(ValueError, match="at least one node"):
        parse_graph("0 0\n")


def test_line_graph_edges():
    g = line_graph(4)
    assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]


def test_shortest_path_on_line():
    g = line_graph(4)
    assert shortest_path(g, 0, 3) == [0, 1, 2, 3]
    assert shortest_path(g, 2, 2) == [2]


def test_shortest_path_demo6(demo6_graph):
    # Opposite corners of the six-qubit demo layout sit three hops apart.
    assert len(shortest_path(demo6_graph, 0, 3)) - 1 == 3
    for a in range(6):
        for b in range(6):
            d1 = len(shortest_path(demo6_graph, a, b))
            d2 = len(shortest_path(demo6_graph, b, a))
            assert d1 == d2


def test_steiner_adjacent_pair(demo6_graph):
    t = steiner_approx(demo6_graph, {0, 1})
    assert t.weight == 1
    assert t.tree_edges == frozenset({(0, 1)})
    e = steiner_exact(demo6_graph, {0, 1})
    assert e.weight == 1


def test_steiner_grid12_reference(grid12_graph):
    # Terminal set with known optimum 6 and Steiner nodes {3, 4, 7}.
    terminals = {0, 5, 6, 10}
    approx = steiner_approx(grid12_graph, terminals, root=0)
    exact = steiner_exact(grid12_graph, terminals, root=0)
    assert exact.weight == 6
    assert exact.steiner_nodes == frozenset({3, 4, 7})
    assert 6 <= approx.weight <= 12
    approx.validate()
    exact.validate()


def test_steiner_exact_matches_brute_force(grid12_graph):
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(2, 5)
        terminals = set(rng.sample(range(12), k))
        exact = steiner_exact(grid12_graph, terminals)
        assert exact.weight == brute_force_steiner_weight(grid12_graph, terminals)


def test_steiner_exact_spanning_line():
    g = line_graph(5)
    t = steiner_exact(g, set(range(5)))
    assert t.weight == 4


def test_steiner_exact_cap():
    g = complete_graph(15)
    with pytest.raises(ValueError):
        steiner_exact(g, set(range(7)))
    # few terminals on a big graph is allowed
    t = steiner_exact(g, {0, 7, 12})
    assert t.weight == 2


def test_steiner_approx_quality_and_validity():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 10)
        g = random_connected_graph(n, rng.uniform(0.25, 0.8), rng.randrange(10**6))
        k = rng.randint(2, min(5, n))
        terminals = set(rng.sample(range(n), k))
        approx = steiner_approx(g, terminals)
        approx.validate()
        exact_w = brute_force_steiner_weight(g, terminals)
        assert exact_w <= approx.weight <= 2 * exact_w
        checked += 1


def test_steiner_approx_deterministic(grid12_graph):
    a = steiner_approx(grid12_graph, {0, 5, 6, 10})
    b = steiner_approx(grid12_graph, {0, 5, 6, 10})
    assert a.tree_edges == b.tree_edges


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_steiner_approx_matches_the_full_round_reference(g):
    rng = random.Random(g.node_count * 1000 + g.edge_count())
    for terminals in random_terminal_sets(g, rng, 80):
        root = rng.choice(terminals)
        got = steiner_approx(g, terminals, root)
        assert got.tree_edges == reference_steiner_approx(g, terminals, root).tree_edges, (
            sorted(terminals), root)
        assert got.root == root


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_steiner_approx_leaves_are_terminals(g):
    # Every node a round adds lies inside its path, and degrees only grow,
    # so the synthesizers can use a tree's adjacency without pruning it.
    rng = random.Random(g.node_count * 7 + g.edge_count())
    for terminals in random_terminal_sets(g, rng, 80):
        tree = steiner_approx(g, terminals, rng.choice(terminals))
        leaves = {n for n, ns in tree.adjacency().items() if len(ns) == 1}
        assert leaves <= tree.terminals, sorted(terminals)


def test_tree_adjacency_is_ascending_whichever_way_edges_are_given():
    g = ConnectivityGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 5)}))
    want = {0: [1], 1: [0, 2, 4], 2: [1], 4: [1, 5], 5: [4]}
    for edges in ([(0, 1), (1, 2), (1, 4), (4, 5)], [(1, 0), (2, 1), (4, 1), (5, 4)]):
        tree = SteinerTree(g, frozenset({0, 2, 5}), 0, frozenset(edges))
        assert tree.adjacency() == want
        assert tree.nodes == frozenset(want)
    single = SteinerTree(g, frozenset({3}), 3, frozenset())
    assert single.adjacency() == {3: []} and single.nodes == frozenset({3})
    single.validate()


def bad_trees():
    """(host, terminals, root, edges, the message `validate` raises)."""
    g = ConnectivityGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}))
    k5 = complete_graph(5)
    return [
        (g, frozenset({1, 2}), 0, {(0, 1), (1, 2)}, "root must be a terminal"),
        (g, frozenset({0, 2}), 0, {(0, 2)}, "tree edge not in host graph"),
        (g, frozenset({0, 5}), 0, {(0, 1), (1, 2)}, "terminal missing from tree"),
        (g, frozenset({0, 4}), 0, {(0, 1), (3, 4)}, "edge count is not |nodes|-1"),
        # |nodes|-1 edges, but a cycle through the root and a split-off edge.
        (k5, frozenset({0, 3}), 0, {(0, 1), (1, 2), (0, 2), (3, 4)},
         "tree edges do not form a connected subgraph"),
        # The root's component is a tree; the cycle lies in another one.
        (k5, frozenset({0, 2}), 0, {(0, 1), (2, 3), (3, 4), (2, 4)},
         "tree edges do not form a connected subgraph"),
    ]


def test_validate_keeps_its_messages():
    for host, terminals, root, edges, message in bad_trees():
        with pytest.raises(AssertionError, match=message.replace("|", r"\|")):
            SteinerTree(host, terminals, root, frozenset(edges)).validate()


def test_validate_checks_under_optimized_python():
    # `python -O` strips assert statements; validate must still raise, and
    # on this tree (|nodes|-1 edges, a cycle through the root and a
    # split-off edge) only the walk catches the fault.
    script = (
        "from steinersynth.graphs import SteinerTree, complete_graph\n"
        "edges = frozenset({(0, 1), (1, 2), (0, 2), (3, 4)})\n"
        "tree = SteinerTree(complete_graph(5), frozenset({0, 3}), 0, edges)\n"
        "print(__debug__)\n"
        "try:\n"
        "    tree.validate()\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(steinersynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\ntree edges do not form a connected subgraph\n"


def test_a_handed_over_tree_fails_validate_as_the_public_one_does():
    # The private constructor takes the adjacency and walk as given, so
    # `validate` must still catch a cyclic, disconnected or off-graph edge
    # set, with the message the public constructor's tree raises.
    for host, terminals, root, edges, message in bad_trees():
        adj = {root: []}
        for u, v in sorted(edges):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for ns in adj.values():
            ns.sort()
        tree = SteinerTree._from_search(
            host, terminals, root, frozenset(edges), adj, _preorder(adj, root))
        assert tree.tree_edges == frozenset(edges) and tree._adj == adj
        with pytest.raises(AssertionError, match=message.replace("|", r"\|")):
            tree.validate()


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_the_search_hands_over_the_tree_the_public_constructor_builds(g):
    # Seeded terminal sets, with no mask and with two random masks around
    # the terminals (one holding an unmasked tree, so it connects them),
    # each from a random root: the edges, the ascending neighbour lists and
    # the walk equal those the public constructor builds from the edges.
    n = g.node_count
    rng = random.Random(3 * n + len(g.edges))
    masked = 0
    for terminals in random_terminal_sets(g, rng, 40):
        spanned = sum(1 << v for v in steiner_approx(g, terminals).nodes)
        terms = sum(1 << t for t in terminals)
        for allowed in (None, spanned | rng.getrandbits(n), terms | rng.getrandbits(n) | rng.getrandbits(n)):
            root = rng.choice(terminals)
            try:
                tree = steiner_approx(g, terminals, root, allowed)
            except ValueError as exc:
                assert allowed is not None and str(exc) == "the allowed nodes do not connect the terminals"
                continue
            masked += allowed is not None
            want = SteinerTree(g, frozenset(terminals), root, tree.tree_edges)
            want.validate()
            key = (sorted(terminals), root, allowed)
            assert tree == want, key
            assert tree._adj == want._adj and tree.preorder == want.preorder, key
    assert masked >= 40


def test_validate_reads_the_searched_edges_not_the_walk(monkeypatch):
    # With a walk that loses its last edge, the search's own edge set still
    # has |nodes|-1 edges, so validate fails on connectivity, not on the
    # edge count it would fail on if it counted the walk's edges.
    walk = graphs._preorder
    monkeypatch.setattr(graphs, "_preorder", lambda adj, root: walk(adj, root)[:-1])
    with pytest.raises(AssertionError, match="^tree edges do not form a connected subgraph$"):
        steiner_approx(grid_graph(3, 3), {0, 4, 8})


def test_a_built_tree_keeps_the_walk_validate_took(grid12_graph):
    tree = steiner_approx(grid12_graph, {0, 5, 6, 10})
    assert "preorder" in vars(tree)
    assert len(tree.preorder) == tree.weight and tree.preorder[0][0] == tree.root


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 9) for b in range(a + 1, 9)])
def test_steiner_new_path_node_joins_a_component_by_its_smallest_edge(a, b):
    # Terminals 0, 2 and the adjacent pair a < b, all next to the hub 1; the
    # other nodes hang off 0.  The first round runs 2-1-0, after which the
    # hub touches the component {a, b} twice: only the edge (1, a) joins it.
    edges = {(0, 1), (1, 2), (1, a), (1, b), (a, b)}
    edges |= {(0, x) for x in range(3, 9) if x not in (a, b)}
    g = ConnectivityGraph(9, frozenset(edges))
    tree = steiner_approx(g, {0, 2, a, b})
    assert tree.tree_edges == {(0, 1), (1, 2), (1, a), (a, b)}
    assert tree.tree_edges == reference_steiner_approx(g, {0, 2, a, b}).tree_edges


def test_steiner_new_path_node_below_both_components():
    # Terminals 1, 2 and 6; the first round runs 1-0-2, so the union-find
    # representative of the merged super-terminal is the new path node 0,
    # while the labels keep 1 (the larger side).  The second round must
    # still grow {0, 1, 2} as one wave, which meets 6 at the edge (5, 6).
    g = ConnectivityGraph(7, frozenset({(0, 1), (0, 2), (2, 3), (3, 4), (4, 6), (0, 5), (5, 6)}))
    tree = steiner_approx(g, {1, 2, 6})
    assert tree.tree_edges == reference_steiner_approx(g, {1, 2, 6}).tree_edges
    assert tree.tree_edges == {(0, 1), (0, 2), (0, 5), (5, 6)}


def test_steiner_rejects_empty_terminals(demo6_graph):
    with pytest.raises(ValueError):
        steiner_approx(demo6_graph, set())


@pytest.mark.parametrize("terminals, bad", [([-1, 1], -1), ([0, 7], 7)])
def test_steiner_rejects_out_of_range_terminals(terminals, bad):
    with pytest.raises(ValueError, match=f"terminal {bad} out of range"):
        steiner_approx(line_graph(3), terminals)


@pytest.mark.parametrize("call, message", [
    (lambda g: shortest_path(g, -1, 0), "path end -1"),
    (lambda g: shortest_path(g, 7, 0), "path end 7"),
    (lambda g: shortest_path(g, 0, 7), "path end 7"),
    (lambda g: shortest_path(g, -1, -1), "path end -1"),
    (lambda g: graphs.distances_from(g, -1), "source -1"),
    (lambda g: graphs.distances_from(g, 3), "source 3"),
    (lambda g: steiner_exact(g, {0, 3}), "terminal 3"),
    (lambda g: steiner_exact(g, {-1, 0}), "terminal -1"),
    (lambda g: naive_swap_expand(Circuit(4, (cnot(3, 0),)), g), "path end 3"),
], ids=["path-from-neg", "path-from-past", "path-to-past", "path-neg-to-itself", "dist-neg",
        "dist-past", "exact-past", "exact-neg", "swap-expand-past"])
def test_a_node_outside_the_graph_is_a_value_error(call, message):
    # Not a Python index: -1 would read the last node, 7 an IndexError.
    with pytest.raises(ValueError, match=rf"^{message} is not a node of line\(3\) \(3 nodes\)$"):
        call(line_graph(3))


@pytest.mark.parametrize(
    "name,nodes", [("bristlecone72", 72), ("tokyo20", 20), ("acorn19", 19)]
)
def test_builtin_architectures(name, nodes):
    g = builtin_architecture(name)
    assert g.node_count == nodes  # connectivity checked at construction


def test_builtin_line_and_grid():
    assert builtin_architecture("line(4)").sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    g = builtin_architecture("grid(3,4)")
    assert g.node_count == 12
    assert g.edge_count() == 17
    with pytest.raises(ValueError):
        builtin_architecture("hexagon99")


def test_architecture_prefixes_stay_connected():
    # Size sweeps rely on prefix-induced subgraphs being connected.
    from steinersynth.bench import prefix_subgraph

    for name in ("bristlecone72", "tokyo20", "acorn19"):
        g = builtin_architecture(name)
        for k in range(2, g.node_count + 1):
            prefix_subgraph(g, k)


def test_random_connected_graph_properties():
    assert random_connected_graph(5, 1.0, 3).edge_count() == 10
    assert random_connected_graph(2, 0.3, 0).edge_count() == 1
    g1 = random_connected_graph(20, 0.1, 99)
    g2 = random_connected_graph(20, 0.1, 99)
    assert g1.edges == g2.edges


def test_random_connected_graph_gives_up_with_a_value_error():
    # Far below the connectivity threshold no draw is connected; giving up
    # is a bad input (the CLI's exit 2), not a crash.
    with pytest.raises(ValueError, match=r"no connected graph after \d+ draws \(n=4"):
        random_connected_graph(4, 0.001, 1)


@pytest.mark.parametrize("g", [
    ConnectivityGraph(1, frozenset(), name="one-node"),
    line_graph(5),
    grid_graph(3, 4),
    complete_graph(6),
    builtin_architecture("tokyo20"),
    builtin_architecture("bristlecone72"),
    random_connected_graph(12, 0.3, 4),
], ids=lambda g: g.name)
def test_graph_builds_one_cnot_per_directed_edge(g):
    arcs = g._arcs
    assert len(arcs) == 2 * g.edge_count()
    assert set(arcs) == g.edges | {(v, u) for u, v in g.edges}
    for (c, t), gate in arcs.items():
        assert gate == cnot(c, t)
        assert g.has_edge(c, t)
    assert g._ladders is None


def test_graph_text_roundtrip(demo6_graph):
    g = parse_graph(emit_graph(demo6_graph))
    assert g.edges == demo6_graph.edges
    with pytest.raises(ValueError):
        parse_graph("3 1\n0 1\n1 2\n")


def pair_graphs():
    """line(6), grid(3,3), tokyo20 and a random graph."""
    return [
        line_graph(6),
        grid_graph(3, 3),
        builtin_architecture("tokyo20"),
        random_connected_graph(10, 0.3, 5),
    ]


def fresh_copy(g):
    """The same graph, built again, with nothing computed on it yet."""
    return ConnectivityGraph(g.node_count, g.edges, name=g.name)


def from_label(g, i: int) -> int:
    """The allowed-node mask of the labels >= i: a floor at i."""
    return ((1 << g.node_count) - 1) >> i << i


def every_pair_call(g):
    """(terminals, root) of every two-terminal call: each pair with its
    smaller end, its larger end and the default as root."""
    n = g.node_count
    return [({a, b}, root) for a in range(n) for b in range(a + 1, n) for root in (a, b, None)]


def elimination_graph(g):
    """The graph Steiner-Gauss elimination works in: g itself when its
    labels serve, its relabelled copy otherwise."""
    return g if g._relabelled is None else g._relabelled[1]


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_pair_tree_is_the_tree_a_fresh_graph_builds(g):
    for terminals, root in every_pair_call(g):
        got = steiner_approx(g, terminals, root)
        again = steiner_approx(g, terminals, root)
        want = steiner_approx(fresh_copy(g), terminals, root)
        for tree in (got, again):
            assert tree == want and tree._adj == want._adj, (sorted(terminals), root)
        assert got.root == (min(terminals) if root is None else root)


def assert_edges_ignore_the_root(h, terminal_sets):
    """Every root of each set, and the default, gives the same tree edges,
    with no mask and with a floor at the set's smallest terminal."""
    for terminals in terminal_sets:
        for allowed in (None, from_label(h, min(terminals))):
            trees = [steiner_approx(h, terminals, root, allowed) for root in (None, *terminals)]
            assert [tree.root for tree in trees] == [min(terminals), *terminals]
            assert {tree.tree_edges for tree in trees} == {trees[0].tree_edges}, (
                sorted(terminals), allowed)


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_pair_tree_edges_do_not_depend_on_the_root(g):
    # The search never reads the root, so a tree's edges depend on its
    # terminals and its allowed nodes alone.
    h = elimination_graph(g)
    n = h.node_count
    assert_edges_ignore_the_root(h, [[a, b] for a in range(n) for b in range(a + 1, n)])


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_tree_edges_do_not_depend_on_the_root(g):
    h = elimination_graph(g)
    rng = random.Random(h.node_count)
    larger = [ts for ts in random_terminal_sets(h, rng, 60) if len(ts) > 2]
    assert len(larger) > 20
    assert_edges_ignore_the_root(h, larger)


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_steiner_approx_leaves_the_graph_as_it_was(g):
    # No tree is kept on the graph: many calls, unmasked and floored, leave
    # every field as it was, except the properties computed on first use.
    cached = {name for name, attr in vars(ConnectivityGraph).items()
              if isinstance(attr, cached_property)}
    h = elimination_graph(g)
    before = [{k: copy.copy(v) for k, v in vars(x).items() if k not in cached} for x in (g, h)]
    identity = (repr(g), hash(g))
    rng = random.Random(g.node_count)
    for terminals, root in every_pair_call(g) * 2:
        steiner_approx(g, terminals, root)
    for terminals in random_terminal_sets(h, rng, 40) * 2:
        steiner_approx(g, terminals, terminals[0])
        steiner_approx(h, terminals, terminals[0], from_label(h, min(terminals)))
    after = [{k: v for k, v in vars(x).items() if k not in cached} for x in (g, h)]
    assert after == before
    assert (repr(g), hash(g)) == identity and g == fresh_copy(g)


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_synthesis_and_plans_leave_built_trees_unchanged(g):
    trees = [steiner_approx(g, terminals, root) for terminals, root in every_pair_call(g)]
    snapshot = [{u: list(ns) for u, ns in tree._adj.items()} for tree in trees]
    for seed in range(10):
        synthesize_constrained(random_invertible(g.node_count, seed), g)
    for tree in trees:
        plan_pre_transpose(tree)
        if tree.root == min(tree.terminals):
            plan_post_transpose(tree)
    assert [tree._adj for tree in trees] == snapshot


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_floored_tree_has_no_node_below_its_pivot(g):
    h = elimination_graph(g)
    rng = random.Random(h.node_count)
    for terminals in random_terminal_sets(h, rng, 60):
        floor = min(terminals)
        tree = steiner_approx(h, terminals, root=floor, allowed=from_label(h, floor))
        tree.validate()
        assert min(tree.nodes) == floor, sorted(terminals)
        again = steiner_approx(fresh_copy(h), terminals, root=floor,
                               allowed=from_label(h, floor))
        assert tree == again and tree._adj == again._adj
        # A floor at 0 leaves every node open: the unfloored tree.
        if floor == 0:
            assert tree.tree_edges == steiner_approx(fresh_copy(h), terminals).tree_edges


def test_floored_pair_trees_on_the_four_cycle():
    # On the 4-cycle 0-1-3-2, the pair (1, 2) joins through 0 unless the
    # floor at 1 shuts node 0 out, when it joins through 3.
    g = grid_graph(2, 2)
    assert steiner_approx(g, {1, 2}).tree_edges == {(0, 1), (0, 2)}
    floored = steiner_approx(g, {1, 2}, root=2, allowed=0b1110)
    assert floored.tree_edges == {(1, 3), (2, 3)} and floored.root == 2
    assert steiner_approx(g, {1, 2}, allowed=0b1110) == steiner_approx(
        g, {1, 2}, root=1, allowed=0b1110)
    assert steiner_approx(g, {1, 2}).tree_edges == {(0, 1), (0, 2)}
    # Allowing every node searches as giving no mask does.
    for terminals, root in every_pair_call(g):
        tree = steiner_approx(g, terminals, root, allowed=0b1111)
        want = steiner_approx(g, terminals, root)
        assert tree == want and tree._adj == want._adj
    # A mask must hold every terminal: one from label 2 leaves terminal 1 out.
    with pytest.raises(ValueError, match="^a terminal lies outside the allowed nodes$"):
        steiner_approx(g, {1, 3}, allowed=0b1100)


@pytest.mark.parametrize("g", pair_graphs(), ids=lambda g: g.name)
def test_floored_pair_tree_starts_at_its_smaller_terminal(g):
    h = elimination_graph(g)
    n = h.node_count
    for lo, hi, root in [(a, b, r) for a in range(n) for b in range(a + 1, n) for r in (a, b)]:
        tree = steiner_approx(h, {lo, hi}, root=root, allowed=from_label(h, lo))
        assert min(tree.nodes) == lo and tree.root == root, (lo, hi, root)


def test_a_floor_that_separates_the_terminals_is_an_input_error():
    # A star with centre 0: above floor 1 the leaves 1 and 2 share no path.
    star = ConnectivityGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}), name="star4")
    with pytest.raises(ValueError, match="^the allowed nodes do not connect the terminals$"):
        steiner_approx(star, {1, 2}, root=1, allowed=0b1110)
    assert steiner_approx(star, {1, 2}).tree_edges == {(0, 1), (0, 2)}
