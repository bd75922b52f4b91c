import random

import pytest

from steinersynth import (
    BinaryMatrix,
    ConnectivityGraph,
    PhasePolynomial,
    SumOverPaths,
    builtin_architecture,
    eliminate_column_cost,
    expand_templates,
    naive_column_cost,
    naive_swap_expand,
    plan_post_transpose,
    plan_pre_transpose,
    pmh_synthesize,
    random_connected_graph,
    random_invertible,
    simulate_cnot_circuit,
    steiner_approx,
    synthesize_constrained,
)
from steinersynth import cnot_synth
from steinersynth.bench import random_phase_instance
from steinersynth.circuits import Circuit, cnot
from steinersynth.cnot_synth import _path_ops
from steinersynth.graphs import SteinerTree, complete_graph, grid_graph, line_graph
from steinersynth.gf2 import SingularMatrixError, invert, is_invertible
from steinersynth.phase_synth import _synthesize_up_to
from steinersynth.verify import edge_legal
from conftest import oracle_graphs, pmh_at, random_terminal_sets


def reference_adjacency(tree: SteinerTree) -> dict[int, list[int]]:
    """Sorted tree adjacency built from the edges, as SteinerTree.adjacency
    did before it was cached."""
    nodes = {n for e in tree.tree_edges for n in e} or {tree.root}
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for u, v in tree.tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    return {n: sorted(ns) for n, ns in adj.items()}


def reference_pruned_adjacency(tree: SteinerTree) -> dict[int, list[int]]:
    """Tree adjacency with non-terminal leaf branches trimmed away."""
    adj = {n: set(ns) for n, ns in reference_adjacency(tree).items()}
    leaves = [n for n, ns in adj.items() if len(ns) == 1 and n not in tree.terminals]
    while leaves:
        leaf = leaves.pop()
        (parent,) = adj.pop(leaf)
        adj[parent].discard(leaf)
        if len(adj[parent]) == 1 and parent not in tree.terminals:
            leaves.append(parent)
    return {n: sorted(ns) for n, ns in adj.items()}


def reference_rooted(adj: dict[int, list[int]], root: int) -> dict[int, list[int]]:
    """Children lists (ascending) of the tree rooted at root."""
    children: dict[int, list[int]] = {root: []}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children.setdefault(u, []).append(v)
                children.setdefault(v, [])
                stack.append(v)
    return {u: sorted(vs) for u, vs in children.items()}


Op = tuple[int, int]  # (control, target): row[target] ^= row[control]
# One subtree of a plan: (root, leaves, ops), the ops adding the root's row
# into each leaf row and leaving every other row unchanged.
Subtree = tuple[int, frozenset[int], list[Op]]


def reference_postorder_edges(children: dict[int, list[int]], root: int) -> list[Op]:
    """Edge ops (parent -> child), each emitted when its child subtree finishes."""
    out: list[Op] = []

    def walk(u: int) -> None:
        for v in children[u]:
            walk(v)
            out.append((u, v))

    walk(root)
    return out


def reference_preorder_edges(children: dict[int, list[int]], root: int) -> list[Op]:
    """Edge ops (parent -> child), each parent edge before its child's edges."""
    out: list[Op] = []

    def walk(u: int) -> None:
        for v in children[u]:
            out.append((u, v))
            walk(v)

    walk(root)
    return out


def reference_subtree_ops(adj: dict[int, list[int]], root: int, keep: set[int]) -> list[Op]:
    """The R / R' / R* sequence for one subtree, concatenated.

    `keep` lists the nodes whose rows should end up XORed with the root row
    (the subtree's terminals); all interior nodes must be outside `keep`.
    """
    children = reference_rooted(adj, root)
    ops_r = reference_postorder_edges(children, root)
    ops_rp = [op for op in reversed(ops_r) if op[0] != root]
    ops_rs = [op for op in ops_r + ops_rp if op[1] not in keep]
    return ops_r + ops_rp + ops_rs


def reference_plan_pre_transpose(t: SteinerTree) -> list[Subtree]:
    """The plan_pre_transpose that rooted every cut subtree again, kept as
    the oracle: its subtrees in execution order."""
    adj = reference_pruned_adjacency(t)
    if len(adj) == 1:
        return []
    children = reference_rooted(adj, t.root)

    subtree_roots = [t.root]
    plans: list[Subtree] = []
    for cut_root in subtree_roots:
        # Collect this subtree: BFS from cut_root stopping at interior terminals.
        sub_adj: dict[int, list[int]] = {cut_root: []}
        leaves: set[int] = set()
        queue = [cut_root]
        while queue:
            u = queue.pop(0)
            for v in children[u]:
                sub_adj.setdefault(u, []).append(v)
                sub_adj.setdefault(v, []).append(u)
                is_leaf_of_tree = not children[v]
                if v in t.terminals and not is_leaf_of_tree:
                    leaves.add(v)
                    subtree_roots.append(v)
                elif is_leaf_of_tree:
                    leaves.add(v)
                else:
                    queue.append(v)
        ops = reference_subtree_ops(sub_adj, cut_root, leaves | {cut_root})
        plans.append((cut_root, frozenset(leaves), ops))
    return plans[::-1]


def reference_path_plan(path: list[int]) -> Subtree:
    """The path plan that built a path tree and rooted it, kept as the oracle."""
    root, leaf = path[0], path[-1]
    adj: dict[int, list[int]] = {n: [] for n in path}
    for a, b in zip(path, path[1:]):
        adj[a].append(b)
        adj[b].append(a)
    return root, frozenset({leaf}), reference_subtree_ops(adj, root, {root, leaf})


def reference_plan_post_transpose(t: SteinerTree) -> list[Subtree]:
    """The plan_post_transpose that built the tree path from every terminal
    to every node, kept as the oracle: its ladders in execution order."""
    if t.root != min(t.terminals):
        raise ValueError("post-transpose plans require the smallest terminal as root")
    adj = reference_pruned_adjacency(t)
    if len(adj) == 1:
        return []

    # Tree distances/paths from every terminal, lowest-index tie-breaks.
    def tree_paths_from(s: int) -> dict[int, list[int]]:
        parent = {s: s}
        queue = [s]
        while queue:
            next_queue = []
            for u in queue:
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        next_queue.append(v)
            queue = next_queue
        paths = {}
        for n in parent:
            path = [n]
            while path[-1] != s:
                path.append(parent[path[-1]])
            paths[n] = path[::-1]
        return paths

    paths = {s: tree_paths_from(s) for s in t.terminals}
    plans: list[Subtree] = []
    for w in sorted(t.terminals, reverse=True):
        if w == t.root:
            continue
        anchor = min(
            (s for s in t.terminals if s < w),
            key=lambda s: (len(paths[s][w]), s),
        )
        plans.append(reference_path_plan(paths[anchor][w]))
    return plans


def flatten(subtrees: list[Subtree]) -> list[Op]:
    """The ops of every subtree, in execution order."""
    return [op for _, _, ops in subtrees for op in ops]


def apply_ops(m: BinaryMatrix, ops: list[Op]) -> BinaryMatrix:
    """m with row[target] ^= row[control] applied for each op in turn."""
    rows = list(m.rows)
    for control, target in ops:
        rows[target] ^= rows[control]
    return BinaryMatrix(m.dim, tuple(rows))


def expected_net(subtrees: list[Subtree], m: BinaryMatrix) -> BinaryMatrix:
    """Independent model of a plan: each subtree adds its root row (as it
    stands at execution) into its leaf rows, in execution order."""
    rows = list(m.rows)
    for root, leaves, _ in subtrees:
        snapshot = rows[root]
        for leaf in sorted(leaves):
            rows[leaf] ^= snapshot
    return BinaryMatrix(m.dim, tuple(rows))


def random_rows(n: int, rng) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))


def random_tree_instance(rng):
    n = rng.randint(3, 10)
    g = random_connected_graph(n, rng.uniform(0.25, 0.9), rng.randrange(10**6))
    terminals = set(rng.sample(range(n), rng.randint(2, n)))
    return g, steiner_approx(g, terminals, root=min(terminals))


def test_plan_pre_single_edge(demo6_graph):
    tree = SteinerTree(demo6_graph, frozenset({0, 1}), 0, frozenset({(0, 1)}))
    assert plan_pre_transpose(tree) == [(0, 1)]


def test_plan_pre_path_is_clean_ladder(demo6_graph):
    # Root 0, leaf 2, one relay node: the restoring ladder takes 4 ops.
    tree = SteinerTree(demo6_graph, frozenset({0, 2}), 0, frozenset({(0, 1), (1, 2)}))
    plan = plan_pre_transpose(tree)
    want = reference_plan_pre_transpose(tree)
    assert plan == flatten(want)
    assert len(plan) == 4
    m = random_invertible(6, 12)
    assert apply_ops(m, plan) == expected_net(want, m)


def test_plan_pre_random_trees():
    rng = random.Random(0)
    for _ in range(200):
        g, tree = random_tree_instance(rng)
        plan = plan_pre_transpose(tree)
        want = reference_plan_pre_transpose(tree)
        assert plan == flatten(want)
        for control, target in plan:
            assert g.has_edge(control, target)
        # covered rows = union of subtree roots and leaves; everything else
        # must come back untouched
        m = random_invertible(g.node_count, rng.randrange(10**6))
        got = apply_ops(m, plan)
        assert got == expected_net(want, m)
        touched = {leaf for _, leaves, _ in want for leaf in leaves}
        for r in range(g.node_count):
            if r not in touched:
                assert got.rows[r] == m.rows[r]
        # every leaf is a terminal and every subtree root is a terminal
        for root, leaves, _ in want:
            assert root in tree.terminals
            assert leaves <= tree.terminals


def test_plan_pre_op_budget():
    # Clean plans stay within 4 ops per tree edge.
    rng = random.Random(1)
    for _ in range(100):
        _, tree = random_tree_instance(rng)
        assert len(plan_pre_transpose(tree)) <= 4 * tree.weight


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_plan_pre_matches_the_rooted_subtree_reference(g):
    rng = random.Random(g.node_count * 1000 + g.edge_count() + 2)
    rows_rng = random.Random(0)
    for terminals in random_terminal_sets(g, rng, 60):
        tree = steiner_approx(g, terminals, root=rng.choice(sorted(terminals)))
        got, want = plan_pre_transpose(tree), reference_plan_pre_transpose(tree)
        assert got == flatten(want), sorted(terminals)
        m = random_rows(g.node_count, rows_rng)
        assert apply_ops(m, got) == expected_net(want, m), sorted(terminals)


def branchy_grid_tree(root: int) -> SteinerTree:
    """A hand-built tree on grid(4,4) with interior terminals (1, 5, 10
    have children), Steiner relays (6, 13, 14) and Steiner leaf branches
    (2, 11 and the two-node branch 4-8) that pruning removes."""
    edges = [(5, 6), (6, 7), (6, 10), (10, 11), (10, 14), (13, 14), (12, 13),
             (4, 5), (4, 8), (1, 5), (0, 1), (1, 2)]
    terminals = frozenset({0, 1, 5, 7, 10, 12})
    return SteinerTree(grid_graph(4, 4), terminals, root, frozenset(edges))


@pytest.mark.parametrize("root", [0, 1, 5, 7, 10, 12])
def test_plan_pre_hand_built_tree_matches_the_reference(root):
    tree = branchy_grid_tree(root)
    tree.validate()
    plan = plan_pre_transpose(tree)
    want = reference_plan_pre_transpose(tree)
    assert plan == flatten(want)
    assert len(want) > 1
    # the Steiner leaf branches are pruned away, the relays are restored
    rows = {row for op in plan for row in op}
    assert not rows & {2, 4, 8, 11}
    m = random_invertible(16, root)
    assert apply_ops(m, plan) == expected_net(want, m)


def test_plan_pre_with_a_steiner_leaf_branch(demo6_graph):
    # Node 5 is a Steiner leaf off the root; 2 is an interior terminal.
    tree = SteinerTree(demo6_graph, frozenset({0, 2, 3}), 0,
                       frozenset({(0, 1), (1, 2), (2, 3), (0, 5)}))
    plan = plan_pre_transpose(tree)
    want = reference_plan_pre_transpose(tree)
    assert plan == flatten(want)
    assert [(root, leaves) for root, leaves, _ in want] == [
        (2, frozenset({3})), (0, frozenset({2}))]
    m = random_invertible(6, 4)
    assert apply_ops(m, plan) == expected_net(want, m)


def test_preorder_matches_the_rooted_reference():
    rng = random.Random(3)
    for _ in range(200):
        _, tree = random_tree_instance(rng)
        for root in sorted(tree.terminals):
            rooted = SteinerTree(tree.graph, tree.terminals, root, tree.tree_edges)
            want = reference_preorder_edges(reference_rooted(reference_adjacency(tree), root), root)
            assert list(rooted.preorder) == want


def test_steiner_tree_identity_ignores_the_cached_adjacency(demo6_graph):
    edges = [(0, 1), (1, 2), (2, 3), (0, 5)]
    tree = SteinerTree(demo6_graph, frozenset({0, 2, 3}), 0, frozenset(edges))
    same = SteinerTree(demo6_graph, frozenset({3, 2, 0}), 0, frozenset(reversed(edges)))
    fields = (demo6_graph, tree.terminals, tree.root, tree.tree_edges)
    assert repr(tree) == (
        f"SteinerTree(graph={demo6_graph!r}, terminals={tree.terminals!r}, "
        f"root=0, tree_edges={tree.tree_edges!r})"
    )
    assert hash(tree) == hash(fields) == hash(same)
    assert tree == same
    assert tree != SteinerTree(demo6_graph, frozenset({0, 2, 3}), 0,
                               frozenset([(0, 1), (1, 2), (2, 3)]))
    before = repr(tree), hash(tree)
    tree.validate()
    plan_pre_transpose(tree)
    tree.adjacency()
    assert (repr(tree), hash(tree)) == before
    assert tree.adjacency() == reference_adjacency(tree)


def test_mutating_the_adjacency_copy_changes_no_plan():
    tree = branchy_grid_tree(0)
    pre, post, walk = plan_pre_transpose(tree), plan_post_transpose(tree), tree.preorder
    adj = tree.adjacency()
    for ns in adj.values():
        ns.reverse()
        ns.append(15)
    adj[3] = [0]
    del adj[0]
    assert plan_pre_transpose(tree) == pre
    assert plan_post_transpose(tree) == post
    assert tree.preorder == walk
    assert tree.adjacency() == reference_adjacency(tree)


def test_plan_post_single_edge(demo6_graph):
    tree = SteinerTree(demo6_graph, frozenset({0, 1}), 0, frozenset({(0, 1)}))
    assert plan_post_transpose(tree) == [(0, 1)]


def test_plan_post_line_with_midpath_terminal():
    # Terminals {0, 2, 5} on a line: every effective addition must run from
    # a lower-indexed terminal into a higher one, relays restored.
    g = line_graph(6)
    tree = steiner_approx(g, {0, 2, 5}, root=0)
    plan = plan_post_transpose(tree)
    want = reference_plan_post_transpose(tree)
    assert plan == flatten(want)
    assert {leaf for _, leaves, _ in want for leaf in leaves} == {2, 5}
    for root, leaves, _ in want:
        for leaf in leaves:
            assert root < leaf
    m = random_invertible(6, 3)
    assert apply_ops(m, plan) == expected_net(want, m)


def test_plan_post_random_trees_respect_direction():
    rng = random.Random(2)
    for _ in range(200):
        g, tree = random_tree_instance(rng)
        plan = plan_post_transpose(tree)
        want = reference_plan_post_transpose(tree)
        assert plan == flatten(want)
        for control, target in plan:
            assert g.has_edge(control, target)
        for root, leaves, _ in want:
            assert all(root < leaf for leaf in leaves)
        m = random_invertible(g.node_count, rng.randrange(10**6))
        got = apply_ops(m, plan)
        assert got == expected_net(want, m)
        # rows below the root are never touched
        for r in range(tree.root):
            assert got.rows[r] == m.rows[r]


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_plan_post_matches_the_all_paths_reference(g):
    rng = random.Random(g.node_count * 1000 + g.edge_count() + 1)
    for terminals in random_terminal_sets(g, rng, 60):
        tree = steiner_approx(g, terminals, root=min(terminals))
        got, want = plan_post_transpose(tree), reference_plan_post_transpose(tree)
        assert got == flatten(want), sorted(terminals)


def test_plan_post_skips_non_terminal_branches(demo6_graph):
    # Node 5 is a Steiner leaf hanging off the path 0-1-2; the search from
    # terminal 2 may pass it, but the plan is the pruned tree's plan.
    tree = SteinerTree(demo6_graph, frozenset({0, 2}), 0, frozenset({(0, 1), (1, 2), (0, 5)}))
    plan = plan_post_transpose(tree)
    assert plan == flatten(reference_plan_post_transpose(tree))
    assert plan == [(1, 2), (0, 1), (1, 2), (0, 1)]


@pytest.mark.parametrize("length", range(1, 11))
def test_path_plan_matches_the_rooted_subtree_ops(length):
    rng = random.Random(length)
    rows_rng = random.Random(0)
    for _ in range(5):
        path = rng.sample(range(3 * length + 2), length + 1)
        want = reference_path_plan(path)
        assert want[:2] == (path[0], frozenset({path[-1]}))
        assert _path_ops(path) == flatten([want]), path
        m = random_rows(3 * length + 2, rows_rng)
        assert apply_ops(m, _path_ops(path)) == expected_net([want], m), path


def test_plan_post_requires_smallest_root(demo6_graph):
    tree = steiner_approx(demo6_graph, {1, 3}, root=3)
    with pytest.raises(ValueError):
        plan_post_transpose(tree)


def test_synthesize_identity_is_empty(demo6_graph):
    circ, report = synthesize_constrained(BinaryMatrix.identity(6), demo6_graph)
    assert len(circ) == 0
    assert report.cnot_count == 0


def test_synthesize_demo6_worked_example(demo6_graph, demo6_matrix):
    circ, report = synthesize_constrained(demo6_matrix, demo6_graph)
    assert simulate_cnot_circuit(circ) == demo6_matrix
    assert edge_legal(circ, demo6_graph)
    assert report.cnot_count == len(circ)


def test_synthesize_random_instances():
    rng = random.Random(4)
    for trial in range(100):
        n = rng.randint(2, 20)
        g = random_connected_graph(n, rng.uniform(0.12, 1.0), trial)
        a = random_invertible(n, trial + 500)
        circ, _ = synthesize_constrained(a, g)
        assert simulate_cnot_circuit(circ) == a
        assert edge_legal(circ, g)


def test_synthesize_rejects_bad_input(demo6_graph):
    # The public entry point checks its own input; `run` checks before it
    # calls the unchecked body.
    singular = BinaryMatrix.from_rows([[1] * 6] * 6)
    with pytest.raises(SingularMatrixError):
        synthesize_constrained(singular, demo6_graph)
    with pytest.raises(ValueError, match="^task has 5 qubits but graph has 6 nodes$"):
        synthesize_constrained(BinaryMatrix.identity(5), demo6_graph)


def test_singular_error_names_first_pivotless_column(demo6_graph):
    # Rows 3 and 4 are both e4, so column 3 is the first without a pivot.
    rows = [[int(j == i) for j in range(6)] for i in range(6)]
    rows[3] = rows[4]
    singular = BinaryMatrix.from_rows(rows)
    for synth in (lambda: synthesize_constrained(singular, demo6_graph),
                  lambda: pmh_synthesize(singular)):
        with pytest.raises(SingularMatrixError) as err:
            synth()
        assert err.value.pivot_column == 3


def test_column_costs_16_vs_6(demo6_graph):
    # Clearing rows {2,3,4} from control 0: one-at-a-time templates need
    # 4+8+4 = 16 CNOTs, the grouped plan only 1+1+4 = 6.
    assert naive_column_cost({2, 3, 4}, 0, demo6_graph) == 16
    assert eliminate_column_cost({2, 3, 4}, 0, demo6_graph) == 6


def test_column_cost_adjacent_single_row(demo6_graph):
    assert eliminate_column_cost({1}, 0, demo6_graph) == 1
    assert naive_column_cost({1}, 0, demo6_graph) == 1


def test_pmh_identity_and_roundtrip():
    assert len(pmh_synthesize(BinaryMatrix.identity(6))) == 0
    for seed in range(30):
        a = random_invertible(12, seed)
        for c in (pmh_at(a, None), pmh_synthesize(a)):
            assert simulate_cnot_circuit(c) == a


def test_pmh_partitioning_beats_plain_on_average():
    total_part = total_plain = 0
    for seed in range(50):
        a = random_invertible(20, seed)
        total_part += len(pmh_synthesize(a))
        total_plain += len(pmh_at(a, None))
    assert total_part < total_plain


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_template_ladder_counts(l):
    g = line_graph(l + 1)
    c = Circuit(l + 1, (cnot(0, l),))
    expanded = expand_templates(c, g)
    assert len(expanded) == 4 * (l - 1)
    assert simulate_cnot_circuit(expanded) == simulate_cnot_circuit(c)
    assert edge_legal(expanded, g)
    swapped = naive_swap_expand(c, g)
    assert len(swapped) == 1 + 6 * (l - 1)
    assert simulate_cnot_circuit(swapped) == simulate_cnot_circuit(c)
    assert edge_legal(swapped, g)


def test_template_adjacent_untouched():
    g = line_graph(3)
    c = Circuit(3, (cnot(0, 1),))
    assert expand_templates(c, g) == c
    assert naive_swap_expand(c, g) == c


def test_template_passes_non_cnot_through():
    from steinersynth.circuits import Angle, h, rz

    g = line_graph(4)
    c = Circuit(4, (rz(Angle(1, 8), 2), cnot(0, 3), h(1)))
    out = expand_templates(c, g)
    assert out.gates[0] == c.gates[0]
    assert out.gates[-1] == c.gates[-1]
    assert out.cnot_count == 8


def star_graph(n: int) -> ConnectivityGraph:
    """The star with centre 0: every suffix of its labels from 1 on falls apart."""
    return ConnectivityGraph(n, frozenset((0, k) for k in range(1, n)), name=f"star({n})")


def suffixes_connected(g, order) -> bool:
    """Whether every suffix order[k:] induces a connected subgraph of g."""
    for k in range(len(order)):
        rest = set(order[k:])
        seen, stack = {order[k]}, [order[k]]
        while stack:
            for v in g.neighbors(stack.pop()):
                if v in rest and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != rest:
            return False
    return True


def reverse_bfs_order(g) -> list[int]:
    order = [0]
    for u in order:
        order += [v for v in sorted(g.neighbors(u)) if v not in order]
    return order[::-1]


def order_graphs():
    """Graphs whose own labels have a disconnected suffix, then graphs whose
    labels are valid."""
    broken = [star_graph(12), builtin_architecture("acorn19"), builtin_architecture("bristlecone72")]
    broken += [random_connected_graph(20, p, seed) for p in (0.1, 0.15, 0.3) for seed in (1, 5)]
    valid = [builtin_architecture("tokyo20"), grid_graph(5, 4), grid_graph(2, 2), line_graph(9)]
    valid += [complete_graph(7), ConnectivityGraph(16, frozenset((k, (k + 1) % 16) for k in range(16)),
                                                  name="ring(16)")]
    return broken, valid


def test_elimination_order_keeps_valid_labels_and_connects_every_suffix():
    broken, valid = order_graphs()
    for g in valid:
        assert suffixes_connected(g, range(g.node_count)), g.name
        assert g._relabelled is None, g.name
    for g in broken:
        assert not suffixes_connected(g, range(g.node_count)), g.name
        order, h, arcs = g._relabelled
        assert list(order) == reverse_bfs_order(g)
        assert sorted(order) == list(range(g.node_count))
        assert suffixes_connected(g, order), g.name
        assert suffixes_connected(h, range(h.node_count)) and h._relabelled is None
        pos = {u: k for k, u in enumerate(order)}
        assert h.edges == {tuple(sorted((pos[u], pos[v]))) for u, v in g.edges}
        # Every arc of h stands for an arc of g and emits g's own gate.
        assert arcs == {(pos[c], pos[t]): gate for (c, t), gate in g._arcs.items()}
        assert all(arcs[c, t] is g._arcs[order[c], order[t]] for c, t in h._arcs)
        assert g._relabelled is g._relabelled  # computed once per graph
        assert "_relabelled" not in repr(g) and g == ConnectivityGraph(g.node_count, g.edges, g.name)


def test_elimination_order_rule_matches_the_per_suffix_search():
    # `_relabelled` keeps a graph's labels when every node but the last has
    # a larger neighbour; the reference searches each suffix instead.
    rng = random.Random(23)
    graphs = oracle_graphs() + [
        random_connected_graph(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        for n in [rng.randint(2, 14) for _ in range(300)]
    ]
    kept = 0
    for g in graphs:
        own = suffixes_connected(g, range(g.node_count))
        assert (g._relabelled is None) == own, g.name
        kept += own
    assert 0 < kept < len(graphs)


def test_synthesis_is_exact_and_edge_legal_in_either_labelling():
    broken, valid = order_graphs()
    for g in broken + valid:
        n = g.node_count
        for seed in range(6 if n < 72 else 1):
            a = random_invertible(n, 31 * n + seed)
            circ, _ = synthesize_constrained(a, g)
            assert simulate_cnot_circuit(circ) == a, (g.name, seed)
            assert edge_legal(circ, g), (g.name, seed)
            assert all(gate is g._arcs[gate.qubits] for gate in circ.gates)


def test_matrix_synthesis_never_calls_the_restoring_plan(monkeypatch):
    calls = []
    real = cnot_synth.plan_pre_transpose

    def counted(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(cnot_synth, "plan_pre_transpose", counted)
    broken, valid = order_graphs()
    for g in broken + valid:
        for seed in range(4 if g.node_count < 72 else 1):
            cnot_synth.synthesize_constrained(random_invertible(g.node_count, seed), g)
    assert calls == []
    # The patch is live: the grouped column cost still builds the plan.
    eliminate_column_cost([2, 3], 0, line_graph(4))
    assert len(calls) == 1


def test_first_pass_trees_lie_inside_the_unfinished_rows(monkeypatch):
    floors = []
    real = cnot_synth.steiner_approx

    def recorded(g, terminals, root=None, allowed=None):
        tree = real(g, terminals, root, allowed)
        if allowed is not None:
            floor = min(terminals)
            floors.append(floor)
            assert floor == root and allowed == ((1 << g.node_count) - 1) >> floor << floor
            assert min(tree.nodes) == floor
        return tree

    monkeypatch.setattr(cnot_synth, "steiner_approx", recorded)
    broken, valid = order_graphs()
    for g in broken[:2] + valid[:2]:
        cnot_synth.synthesize_constrained(random_invertible(g.node_count, 3), g)
    assert floors


def rowcol_graphs():
    """Random graphs of 1 to 12 nodes, some whose own labels have a
    disconnected suffix, then the elimination-order graphs."""
    rng = random.Random(24)
    graphs = [line_graph(1), line_graph(2)]
    graphs += [random_connected_graph(n, rng.uniform(0.15, 0.9), rng.randrange(10**6))
               for n in [rng.randint(3, 12) for _ in range(60)]]
    broken, valid = order_graphs()
    return graphs + broken + valid


def rowcol_ops(a, g):
    """The rows of `a` and the row ops `_synthesize_rowcol(a, a⁻¹, g)` clears
    them with, in execution order, both in the graph's elimination labels."""
    rows, _, arcs = cnot_synth._in_elimination_labels(a, g)
    arc_of = {gate: arc for arc, gate in arcs.items()}
    circ = cnot_synth._synthesize_rowcol(a, invert(a), g)
    return rows, [arc_of[gate] for gate in reversed(circ.gates)]


def zero_pivot_matrices(n: int, rng) -> list[BinaryMatrix]:
    """A cyclic shift of the rows, and random invertible matrices, each with
    a zero diagonal (n >= 2), which a relabelling keeps."""
    assert n >= 2
    out = [BinaryMatrix(n, tuple(1 << ((i + 1) % n) for i in range(n)))]
    while len(out) < 4:
        rows = [rng.getrandbits(n) & ~(1 << i) for i in range(n)]
        if is_invertible(BinaryMatrix(n, tuple(rows))):
            out.append(BinaryMatrix(n, tuple(rows)))
    return out


def test_rowcol_is_exact_and_edge_legal_in_either_labelling():
    graphs = rowcol_graphs()
    assert any(g._relabelled is not None for g in graphs)
    assert any(g._relabelled is None for g in graphs)
    for g in graphs:
        n = g.node_count
        for seed in range(4 if n < 72 else 1):
            a = random_invertible(n, 17 * n + seed)
            circ = cnot_synth._synthesize_rowcol(a, invert(a), g)
            phased = random_phase_instance(n, n, seed).phase
            for s in (SumOverPaths(phased, a), SumOverPaths(PhasePolynomial(n, {}), a)):
                _, residual, residual_inv = _synthesize_up_to(s, g)
                assert residual == residual_inv == BinaryMatrix.identity(n), (g.name, seed)
            assert simulate_cnot_circuit(circ) == a, (g.name, seed)
            assert edge_legal(circ, g), (g.name, seed)
            assert all(gate is g._arcs[gate.qubits] for gate in circ.gates)


def test_rowcol_identity_emits_no_gate():
    for g in rowcol_graphs():
        identity = BinaryMatrix.identity(g.node_count)
        assert cnot_synth._synthesize_rowcol(identity, identity, g).gates == ()


def test_rowcol_repairs_zero_pivots_inside_the_tree():
    # Every pivot of the matrices below starts at zero, in the elimination
    # labels too; the child-first fill repairs each with no ladder.
    rng = random.Random(5)
    for g in rowcol_graphs():
        n = g.node_count
        if n < 2 or n > 20:
            continue
        for a in zero_pivot_matrices(n, rng):
            rows, _, _ = cnot_synth._in_elimination_labels(a, g)
            assert not any((r >> i) & 1 for i, r in enumerate(rows)), g.name
            circ = cnot_synth._synthesize_rowcol(a, invert(a), g)
            assert simulate_cnot_circuit(circ) == a and edge_legal(circ, g), g.name


def test_rowcol_never_touches_a_finished_row():
    # Vertices 0..k-1 are finished when their rows and columns are unit
    # vectors; vertex i starts with 0..i-1 finished, and no op may read or
    # write a row below the current vertex.
    rng = random.Random(9)
    for g in rowcol_graphs():
        n = g.node_count
        if n > 20:
            continue
        matrices = [random_invertible(n, 3 * n + s) for s in range(3)]
        for a in matrices + (zero_pivot_matrices(n, rng) if n > 1 else []):
            rows, ops = rowcol_ops(a, g)
            k = 0
            for control, target in ops:
                while k < n and rows[k] == 1 << k and not any(
                    (r >> k) & 1 for j, r in enumerate(rows) if j != k
                ):
                    k += 1
                assert min(control, target) >= k, (g.name, control, target, k)
                rows[target] ^= rows[control]
            assert rows == [1 << i for i in range(n)]


def test_rowcol_builds_two_floored_trees_per_vertex_and_no_plan(monkeypatch):
    trees = []
    real = cnot_synth.steiner_approx

    def recorded(g, terminals, root=None, allowed=None):
        assert root == min(terminals)
        assert allowed == ((1 << g.node_count) - 1) >> root << root
        trees.append(root)
        return real(g, terminals, root, allowed)

    def no_plan(tree):
        raise AssertionError("RowCol builds no ladder or restoring plan")

    monkeypatch.setattr(cnot_synth, "steiner_approx", recorded)
    monkeypatch.setattr(cnot_synth, "plan_post_transpose", no_plan)
    monkeypatch.setattr(cnot_synth, "plan_pre_transpose", no_plan)
    for g in rowcol_graphs()[:20]:
        trees.clear()
        a = random_invertible(g.node_count, 2)
        cnot_synth._synthesize_rowcol(a, invert(a), g)
        assert all(trees.count(i) <= 2 for i in set(trees))
