import random

import pytest

from steinersynth import (
    BinaryMatrix,
    RowOp,
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
from steinersynth.circuits import Circuit, cnot
from steinersynth.cnot_synth import (
    EliminationPlan,
    SubtreePlan,
    _path_plan,
    _pruned_adjacency,
    _subtree_ops,
    apply_plan,
)
from steinersynth.graphs import SteinerTree, line_graph
from steinersynth.gf2 import SingularMatrixError
from steinersynth.verify import edge_legal
from conftest import oracle_graphs, random_terminal_sets


def reference_path_plan(path: list[int]) -> SubtreePlan:
    """The _path_plan that built a path tree and rooted it, kept as the oracle."""
    root, leaf = path[0], path[-1]
    adj: dict[int, list[int]] = {n: [] for n in path}
    for a, b in zip(path, path[1:]):
        adj[a].append(b)
        adj[b].append(a)
    r, rp, rs = _subtree_ops(adj, root, {root, leaf})
    return SubtreePlan(root, frozenset({leaf}), tuple(r), tuple(rp), tuple(rs))


def reference_plan_post_transpose(t: SteinerTree) -> EliminationPlan:
    """The plan_post_transpose that built the tree path from every terminal
    to every node, kept as the oracle."""
    if t.root != min(t.terminals):
        raise ValueError("post-transpose plans require the smallest terminal as root")
    adj = _pruned_adjacency(t)
    if len(adj) == 1:
        return EliminationPlan(())

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
    plans: list[SubtreePlan] = []
    for w in sorted(t.terminals, reverse=True):
        if w == t.root:
            continue
        anchor = min(
            (s for s in t.terminals if s < w),
            key=lambda s: (len(paths[s][w]), s),
        )
        plans.append(reference_path_plan(paths[anchor][w]))
    return EliminationPlan(tuple(plans))


def expected_net(plan, m: BinaryMatrix) -> BinaryMatrix:
    """Independent model of a plan: each subtree adds its root row (as it
    stands at execution) into its leaf rows, in execution order."""
    rows = list(m.rows)
    for root, leaves in plan.net_effects():
        snapshot = rows[root]
        for leaf in sorted(leaves):
            rows[leaf] ^= snapshot
    return BinaryMatrix(m.dim, tuple(rows))


def random_tree_instance(rng):
    n = rng.randint(3, 10)
    g = random_connected_graph(n, rng.uniform(0.25, 0.9), rng.randrange(10**6))
    terminals = set(rng.sample(range(n), rng.randint(2, n)))
    return g, steiner_approx(g, terminals, root=min(terminals))


def test_plan_pre_single_edge(demo6_graph):
    tree = SteinerTree(demo6_graph, frozenset({0, 1}), 0, frozenset({(0, 1)}))
    plan = plan_pre_transpose(tree)
    assert plan.ops() == (RowOp(0, 1),)
    assert all(sub.ops_Rprime == () and sub.ops_Rstar == () for sub in plan.subtrees)


def test_plan_pre_path_is_clean_ladder(demo6_graph):
    # Root 0, leaf 2, one relay node: the restoring ladder takes 4 ops.
    tree = SteinerTree(demo6_graph, frozenset({0, 2}), 0, frozenset({(0, 1), (1, 2)}))
    plan = plan_pre_transpose(tree)
    assert len(plan.ops()) == 4
    m = random_invertible(6, 12)
    assert apply_plan(m, plan) == expected_net(plan, m)


def test_plan_pre_random_trees():
    rng = random.Random(0)
    for _ in range(200):
        g, tree = random_tree_instance(rng)
        plan = plan_pre_transpose(tree)
        for op in plan.ops():
            assert g.has_edge(op.control, op.target)
        # covered rows = union of subtree roots and leaves; everything else
        # must come back untouched
        m = random_invertible(g.node_count, rng.randrange(10**6))
        got = apply_plan(m, plan)
        want = expected_net(plan, m)
        assert got == want
        touched = {leaf for _, leaves in plan.net_effects() for leaf in leaves}
        for r in range(g.node_count):
            if r not in touched:
                assert got.rows[r] == m.rows[r]
        # every leaf is a terminal and every subtree root is a terminal
        for root, leaves in plan.net_effects():
            assert root in tree.terminals
            assert leaves <= tree.terminals


def test_plan_pre_op_budget():
    # Clean plans stay within 4 ops per tree edge.
    rng = random.Random(1)
    for _ in range(100):
        _, tree = random_tree_instance(rng)
        plan = plan_pre_transpose(tree)
        assert len(plan.ops()) <= 4 * tree.weight


def test_plan_post_single_edge(demo6_graph):
    tree = SteinerTree(demo6_graph, frozenset({0, 1}), 0, frozenset({(0, 1)}))
    plan = plan_post_transpose(tree)
    assert plan.ops() == (RowOp(0, 1),)


def test_plan_post_line_with_midpath_terminal():
    # Terminals {0, 2, 5} on a line: every effective addition must run from
    # a lower-indexed terminal into a higher one, relays restored.
    g = line_graph(6)
    tree = steiner_approx(g, {0, 2, 5}, root=0)
    plan = plan_post_transpose(tree)
    effects = plan.net_effects()
    assert {leaf for _, leaves in effects for leaf in leaves} == {2, 5}
    for root, leaves in effects:
        for leaf in leaves:
            assert root < leaf
    m = random_invertible(6, 3)
    assert apply_plan(m, plan) == expected_net(plan, m)


def test_plan_post_random_trees_respect_direction():
    rng = random.Random(2)
    for _ in range(200):
        g, tree = random_tree_instance(rng)
        plan = plan_post_transpose(tree)
        for op in plan.ops():
            assert g.has_edge(op.control, op.target)
        for root, leaves in plan.net_effects():
            assert all(root < leaf for leaf in leaves)
        m = random_invertible(g.node_count, rng.randrange(10**6))
        got = apply_plan(m, plan)
        assert got == expected_net(plan, m)
        # rows below the root are never touched
        for r in range(tree.root):
            assert got.rows[r] == m.rows[r]


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_plan_post_matches_the_all_paths_reference(g):
    rng = random.Random(g.node_count * 1000 + g.edge_count() + 1)
    for terminals in random_terminal_sets(g, rng, 60):
        tree = steiner_approx(g, terminals, root=min(terminals))
        got, want = plan_post_transpose(tree), reference_plan_post_transpose(tree)
        assert got == want, sorted(terminals)


def test_plan_post_skips_non_terminal_branches(demo6_graph):
    # Node 5 is a Steiner leaf hanging off the path 0-1-2; the search from
    # terminal 2 may pass it, but the plan is the pruned tree's plan.
    tree = SteinerTree(demo6_graph, frozenset({0, 2}), 0, frozenset({(0, 1), (1, 2), (0, 5)}))
    assert plan_post_transpose(tree) == reference_plan_post_transpose(tree)
    assert plan_post_transpose(tree).ops() == (
        RowOp(1, 2), RowOp(0, 1), RowOp(1, 2), RowOp(0, 1))


@pytest.mark.parametrize("length", range(1, 11))
def test_path_plan_matches_the_rooted_subtree_ops(length):
    rng = random.Random(length)
    for _ in range(5):
        path = rng.sample(range(3 * length + 2), length + 1)
        assert _path_plan(path) == reference_path_plan(path), path


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
    singular = BinaryMatrix.from_rows([[1] * 6] * 6)
    with pytest.raises(Exception):
        synthesize_constrained(singular, demo6_graph)
    with pytest.raises(ValueError):
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
        for partition in (False, True):
            c = pmh_synthesize(a, partition=partition)
            assert simulate_cnot_circuit(c) == a


def test_pmh_partitioning_beats_plain_on_average():
    total_part = total_plain = 0
    for seed in range(50):
        a = random_invertible(20, seed)
        total_part += len(pmh_synthesize(a, partition=True))
        total_plain += len(pmh_synthesize(a, partition=False))
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
