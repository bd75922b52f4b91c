"""Coupling graphs, shortest paths, Steiner trees and instance generators.

The approximate Steiner tree grows breadth-first search waves outward from
every terminal at once; when two waves meet, the meeting path is merged into
a single super-terminal (a label per node, the smaller side relabelled) and
the search restarts.  Two shortcuts give exactly the same trees for less
work: waves that touch at once (two adjacent tree nodes) are joined by
Kruskal merges over the sorted edges without any search, and each search
stops after the first layer in which two waves meet, since every later
meeting is longer.  The search hands over the tree it built in one pass:
it records each tree edge and both ends' neighbours as it merges, sorts
those short lists once, walks the tree from its root once, and fills the
`SteinerTree` with all three (`SteinerTree._from_search`), whose
`validate` then checks the edges the merges recorded.  An exact
Dreyfus-Wagner solver is provided as a test oracle for small instances.

All tie-breaking (BFS frontier order, collision choice, equal-length paths)
prefers the lowest node index, so every result is deterministic.
"""

from __future__ import annotations

import functools
import heapq
import importlib.resources
import random
import re
from dataclasses import dataclass, field
from functools import cached_property

from .circuits import Gate, cnot, content_lines

_GRAPH_DRAWS = 10_000  # random_connected_graph gives up after this many draws

def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected, connected, unit-weight coupling graph.

    Besides the adjacency lists, construction builds the CNOT of every
    directed edge once: `_arcs` maps each (control, target) arc, both
    orientations of every edge, to its `cnot` gate, and the graph-aware
    synthesizers emit these gates and no other CNOTs.  One memo starts
    as None and lives exactly as long as the graph: `_ladders`, made on
    first use (`cnot_synth._Ladders`), is the ladder table, n*n pair ids
    that route every arc to itself and each non-adjacent ordered pair
    that template expansion has met to its relay ladder of arcs.
    `_bfs_order` is kept from the connectivity check, and `_adj_masks`,
    the adjacency as bitmasks, and `_relabelled`, the elimination order
    of Steiner-Gauss synthesis, are computed on first use and kept.
    Nothing kept refers back to the graph, so a dropped graph is freed at
    once rather than by the cycle collector.  None of these takes part in
    equality, hashing or repr.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    name: str = "graph"
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _arcs: dict[tuple[int, int], Gate] = field(init=False, repr=False, compare=False)
    _ladders: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError(f"graph needs at least one node, got {self.node_count}")
        edges = frozenset(_norm_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(ns)) for ns in adj))
        if len(self._bfs_order) != self.node_count:
            raise ValueError("graph is not connected")
        arcs = {arc: cnot(*arc) for u, v in edges for arc in ((u, v), (v, u))}
        object.__setattr__(self, "_arcs", arcs)

    @cached_property
    def _bfs_order(self) -> list[int]:
        """The nodes reachable from node 0 in breadth-first order,
        neighbours ascending: every node exactly when the graph is
        connected."""
        order, seen = [0], {0}
        for u in order:
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        return order

    @cached_property
    def _adj_masks(self) -> tuple[int, ...]:
        """Each node's neighbours as a bitmask, bit v for node v."""
        return tuple(sum(1 << v for v in ns) for ns in self._adj)

    @cached_property
    def _relabelled(self) -> tuple[tuple[int, ...], ConnectivityGraph, dict] | None:
        """The labels Steiner-Gauss elimination works in, or None for the
        graph's own.

        Elimination clears rows 0, 1, ... in label order and keeps every
        tree inside the unfinished rows, so each suffix {i, ..., n-1} of
        the labels must induce a connected subgraph, which holds exactly
        when every node but the last has a larger neighbour.  When the
        graph's own labels do that, they are kept.  Otherwise the order is
        the reverse of the breadth-first order from node 0 (`_bfs_order`),
        whose every suffix is a breadth-first prefix and so connected.
        Returns (order, h, arcs): node k of `h` is node order[k] here, and
        `arcs` maps each arc of `h` to the gate this graph built for the
        arc it stands for (`_arcs`).
        """
        n = self.node_count
        if all(self._adj[i][-1] > i for i in range(n - 1)):
            return None
        order = self._bfs_order[::-1]
        pos = {u: k for k, u in enumerate(order)}
        h = ConnectivityGraph(
            n, frozenset((pos[u], pos[v]) for u, v in self.edges), name=self.name
        )
        arcs = {(pos[c], pos[t]): gate for (c, t), gate in self._arcs.items()}
        return tuple(order), h, arcs

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._arcs

    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _preorder(adj: dict[int, list[int]], root: int) -> tuple[tuple[int, int], ...]:
    """The (parent, child) edges of a tree from `root`, each parent's edge
    before its children's, children in the order of `adj`'s lists.

    On edges that are not a tree, `seen` makes it walk a spanning tree of
    the root's component, which `SteinerTree.validate` counts."""
    seen = {root}
    edges = []
    stack = [(root, v) for v in reversed(adj[root])]
    while stack:
        edge = stack.pop()
        u, v = edge
        if v in seen:  # only on a cycle
            continue
        seen.add(v)
        edges.append(edge)
        for w in reversed(adj[v]):
            if w != u:
                stack.append((v, w))
    return tuple(edges)


def _check_width(width: int, g: ConnectivityGraph) -> None:
    """Raise ValueError unless a task on `width` qubits has one qubit per
    node of `g`: the one rule every synthesizer and `pipeline.run` share."""
    if width != g.node_count:
        raise ValueError(f"task has {width} qubits but graph has {g.node_count} nodes")


def _components(adj_masks: tuple[int, ...], nodes: int, cap: int) -> int:
    """The number of connected components of the subgraph induced on
    `nodes` (a node bitmask), or cap + 1 once more than `cap` are found.

    Each component is flooded from its lowest node over `adj_masks`
    (`ConnectivityGraph._adj_masks`), every reached node's neighbours
    taken once, and leaves `nodes` as it is reached."""
    parts = 0
    while nodes:
        if parts == cap:
            return cap + 1
        parts += 1
        todo = nodes & -nodes
        nodes ^= todo
        while todo:
            low = todo & -todo
            todo ^= low
            grow = adj_masks[low.bit_length() - 1] & nodes
            nodes ^= grow
            todo |= grow
    return parts


@dataclass(frozen=True)
class SteinerTree:
    """A tree inside a host graph spanning a terminal set.

    Nodes of the tree that are not terminals are Steiner nodes; the root is
    a distinguished terminal (the elimination pivot).

    The adjacency (`_adj`: each node to the ascending list of its tree
    neighbours, which nothing may mutate) is built from the edges, and
    `preorder` walks it from the root (`_preorder`), each once, on first
    read; `validate`, `cnot_synth.plan_pre_transpose` and the synthesizers
    share that walk, and `adjacency()` hands out a copy.  `steiner_approx`
    knows both before the tree exists, so it hands them over through
    `_from_search`, which skips the rebuilt adjacency and the second walk;
    `validate` still runs on the edges its merges recorded, never on ones
    read back from the walk.  Neither takes part in equality, hashing or
    repr.
    """

    graph: ConnectivityGraph
    terminals: frozenset[int]
    root: int
    tree_edges: frozenset[tuple[int, int]]

    @cached_property
    def _adj(self) -> dict[int, list[int]]:
        """Each tree node's neighbours, ascending; `{root: []}` when there
        is no edge."""
        adj: dict[int, list[int]] = {} if self.tree_edges else {self.root: []}
        for u, v in self.tree_edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for ns in adj.values():
            ns.sort()
        return adj

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self._adj)

    @property
    def steiner_nodes(self) -> frozenset[int]:
        return self.nodes - self.terminals

    @property
    def weight(self) -> int:
        return len(self.tree_edges)

    @classmethod
    def _from_search(
        cls,
        graph: ConnectivityGraph,
        terminals: frozenset[int],
        root: int,
        tree_edges: frozenset[tuple[int, int]],
        adj: dict[int, list[int]],
        preorder: tuple[tuple[int, int], ...],
    ) -> "SteinerTree":
        """A tree whose adjacency (lists ascending) and walk from the root
        (`_preorder`) its builder already made, filled in rather than built
        on first read; `validate` still checks it."""
        tree = object.__new__(cls)
        vars(tree).update(
            graph=graph, terminals=terminals, root=root, tree_edges=tree_edges,
            _adj=adj, preorder=preorder,
        )
        return tree

    @cached_property
    def preorder(self) -> tuple[tuple[int, int], ...]:
        """The (parent, child) edges of the tree rooted at `root`, each
        parent's edge before its children's, children ascending
        (`_preorder`)."""
        return _preorder(self._adj, self.root)

    def validate(self) -> None:
        """Check the structural invariants, in order, each only once the
        ones before it hold; raises AssertionError on the first failure,
        also under `python -O`."""
        if self.root not in self.terminals:
            raise AssertionError("root must be a terminal")
        if not self.tree_edges <= self.graph.edges:
            raise AssertionError("tree edge not in host graph")
        adj = self._adj
        if not self.terminals.issubset(adj):
            raise AssertionError("terminal missing from tree")
        if len(self.tree_edges) != len(adj) - 1:
            raise AssertionError("edge count is not |nodes|-1")
        if len(self.preorder) != len(adj) - 1:
            raise AssertionError("tree edges do not form a connected subgraph")

    def adjacency(self) -> dict[int, list[int]]:
        """Each node's tree neighbours in ascending order, as a fresh copy."""
        return {n: list(ns) for n, ns in self._adj.items()}


def shortest_path(g: ConnectivityGraph, a: int, b: int) -> list[int]:
    """Minimum-edge-count path from a to b inclusive, lowest-index tie-break."""
    if a == b:
        return [a]
    parent = {a: a}
    queue = [a]
    while queue:
        next_queue = []
        for u in queue:
            for v in g.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    if v == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    next_queue.append(v)
        queue = next_queue
    raise ValueError(f"no path between {a} and {b}")


def distances_from(g: ConnectivityGraph, a: int) -> list[int]:
    """BFS distances from node a to every node."""
    dist = [-1] * g.node_count
    dist[a] = 0
    queue = [a]
    while queue:
        next_queue = []
        for u in queue:
            for v in g.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    next_queue.append(v)
        queue = next_queue
    return dist


_OUTSIDE = -2  # the start label of a node outside the allowed ones


@functools.lru_cache(maxsize=4096)
def _start_labels(n: int, allowed: int) -> tuple[int, ...]:
    """`steiner_approx`'s start label of each of n nodes: -1 (on no tree
    yet) for an allowed node, `_OUTSIDE` for any other.  Few masks recur
    (a floor per label, a partial fixup's unfinished wires), so each tuple
    is built once."""
    return tuple(-1 if (allowed >> v) & 1 else _OUTSIDE for v in range(n))


def steiner_approx(
    g: ConnectivityGraph, terminals, root: int | None = None, allowed: int | None = None
) -> SteinerTree:
    """Approximate minimum Steiner tree by colliding BFS waves.

    With `allowed` given, a node bitmask (bit v set when node v may be
    used) that must hold every terminal, the waves never enter a node
    outside it, so the tree lies inside the allowed nodes, which must
    connect the terminals (else ValueError).  Elimination keeps each tree
    inside its unfinished rows this way: Steiner-Gauss's first pass and
    RowCol's static order allow the labels >= the pivot, and a partial
    RowCol fixup the wires it has not finished.

    Each round runs one breadth-first search seeded from every current
    super-terminal, picks the shortest connecting path between two distinct
    super-terminals (ties by lowest endpoints) and consolidates the path's
    nodes into one super-terminal.  d-1 rounds give O(d*(V+E)) total work.

    Super-terminals are kept as a label per node (-1 off the tree) and the
    member list of each label; a merge relabels the smaller side.  Only
    label equality is ever read, so the labels need not match any
    particular representative.

    Two shortcuts return exactly the tree of running every round in full:

    - A round whose best collision has length 1 joins two adjacent tree
      nodes of different super-terminals by their edge, the smallest such
      edge in sorted order, and adds no node.  So those rounds are Kruskal
      merges over the sorted edges between tree nodes: before any search,
      a walk over each terminal's larger neighbours, terminals and
      neighbours ascending, which visits the edges between terminals in
      sorted order; after each longer round, a walk over the sorted edges
      incident to the new path nodes, since no other edge can have become
      such a pair.  A walk stops once one super-terminal is left.
    - The search runs one layer at a time and stops after the first layer
      k in which two waves meet.  A node of layer k labels each unlabelled
      neighbour into its own wave, so by then every collision with an end
      in layers 0..k has been met, each of length <= 2k+2, while any other
      has both ends in layers >= k+1 and length >= 2k+3.  So the best key
      met is the global minimum, every tie has been met, and the labels,
      distances and parents it reads are those of the full search.

    The search never reads the root, so a tree's edges depend on its
    terminals and its allowed nodes alone, and allowing every node searches
    as giving no mask does.  Each merge records its edge and both ends'
    neighbours, so the tree is handed over with its adjacency and its walk
    from the root (`SteinerTree._from_search`), then validated.
    """
    term_set = frozenset(terminals)
    if not term_set:
        raise ValueError("terminal set is empty")
    n = g.node_count
    lo, hi = min(term_set), max(term_set)
    for t in (lo, hi):
        if not 0 <= t < n:
            raise ValueError(f"terminal {t} out of range")
    if root is None:
        root = lo
    if root not in term_set:
        raise ValueError("root must be a terminal")
    if allowed is None:
        allowed = (1 << n) - 1

    adj = g._adj
    nodes = sorted(term_set)
    label = list(_start_labels(n, allowed))
    members: dict[int, list[int]] = {}
    nbrs: dict[int, list[int]] = {}  # each tree node's neighbours
    for t in nodes:
        if label[t] == _OUTSIDE:
            raise ValueError("a terminal lies outside the allowed nodes")
        label[t] = t
        members[t] = [t]
        nbrs[t] = []
    tree_edges: set[tuple[int, int]] = set()

    # Length-1 rounds, in the order the full rounds would take them: first
    # the edges between terminals, after each search the meeting edge and
    # then the edges at the new path nodes.
    joins = [(u, v) for u in nodes for v in adj[u] if v > u and label[v] >= 0]
    new_nodes: list[int] = []
    while True:
        for u, v in joins:
            a, b = label[u], label[v]
            if a != b:
                tree_edges.add((u, v))
                nbrs[u].append(v)
                nbrs[v].append(u)
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                moved = members.pop(b)
                for x in moved:
                    label[x] = a
                members[a] += moved
                if len(members) == 1:
                    break
        if len(members) == 1:
            break
        if new_nodes:
            joins = sorted({
                (x, y) if x < y else (y, x) for x in new_nodes for y in adj[x] if label[y] >= 0
            })
            new_nodes = []
            continue

        # One BFS wave from every super-terminal simultaneously, layer by
        # layer, until the shortest collision between two distinct waves is
        # known.
        comp = label[:]
        dist = [0] * n
        parent = [-1] * n
        queue = sorted(nodes)
        best = None
        depth = 0
        while best is None:
            if not queue:
                raise ValueError("the allowed nodes do not connect the terminals")
            next_queue = []
            for u in queue:
                cu = comp[u]
                for v in adj[u]:
                    cv = comp[v]
                    if cv < 0:
                        if cv == -1:  # unclaimed; a node outside reads _OUTSIDE
                            comp[v] = cu
                            dist[v] = depth + 1
                            parent[v] = u
                            next_queue.append(v)
                    elif cv != cu:
                        length = depth + dist[v] + 1
                        key = (length, u, v) if u < v else (length, v, u)
                        if best is None or key < best:
                            best = key
            queue = next_queue
            depth += 1
        _, u, v = best

        # Each new path node joins its own wave's super-terminal, its tree
        # neighbours the path node walked before it (`child`) and its
        # parent; the meeting edge (u, v) then merges the two like a
        # length-1 round.
        for end in (u, v):
            node, a, child = end, comp[end], -1
            while dist[node] > 0:
                p = parent[node]
                new_nodes.append(node)
                label[node] = a
                members[a].append(node)
                tree_edges.add((node, p) if node < p else (p, node))
                nbrs[node] = [p] if child < 0 else [child, p]
                node, child = p, node
            if child >= 0:
                nbrs[node].append(child)
        nodes += new_nodes
        joins = [(u, v)]

    for ns in nbrs.values():
        ns.sort()
    tree = SteinerTree._from_search(
        g, term_set, root, frozenset(tree_edges), nbrs, _preorder(nbrs, root)
    )
    tree.validate()
    return tree


def steiner_exact(
    g: ConnectivityGraph, terminals, root: int | None = None
) -> SteinerTree:
    """Minimum Steiner tree by Dreyfus-Wagner dynamic programming.

    Intended as a test oracle; capped to |V| <= 14 or |terminals| <= 6.
    """
    term_list = sorted(set(terminals))
    if not term_list:
        raise ValueError("terminal set is empty")
    if g.node_count > 14 and len(term_list) > 6:
        raise ValueError(
            f"instance too large for the exact solver "
            f"(|V|={g.node_count} > 14 and |terminals|={len(term_list)} > 6)"
        )
    if root is None:
        root = term_list[0]
    if root not in term_list:
        raise ValueError("root must be a terminal")
    if len(term_list) == 1:
        return SteinerTree(g, frozenset(term_list), root, frozenset())

    n = g.node_count
    dist = [distances_from(g, v) for v in range(n)]
    t0, rest = term_list[0], term_list[1:]
    k = len(rest)
    full = (1 << k) - 1
    INF = float("inf")

    dp: list[list[float]] = [[INF] * n for _ in range(full + 1)]
    # walk_from[mask][v]: Dijkstra predecessor source; merge_split[mask][v]: submask.
    walk_from: list[list[int]] = [[-1] * n for _ in range(full + 1)]
    merge_split: list[list[int]] = [[0] * n for _ in range(full + 1)]

    for i, t in enumerate(rest):
        mask = 1 << i
        for v in range(n):
            dp[mask][v] = dist[t][v]
            walk_from[mask][v] = t

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        merged = [INF] * n
        for v in range(n):
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:
                    cost = dp[sub][v] + dp[other][v]
                    if cost < merged[v]:
                        merged[v] = cost
                        merge_split[mask][v] = sub
                sub = (sub - 1) & mask
        # Relax merged values across the graph (unit-weight Dijkstra).
        best = list(merged)
        source = list(range(n))
        heap = [(merged[v], v, v) for v in range(n) if merged[v] < INF]
        heapq.heapify(heap)
        while heap:
            d, _, v = heapq.heappop(heap)
            if d > best[v]:
                continue
            for w in g.neighbors(v):
                if d + 1 < best[w]:
                    best[w] = d + 1
                    source[w] = source[v]
                    heapq.heappush(heap, (d + 1, source[w], w))
        for v in range(n):
            dp[mask][v] = best[v]
            walk_from[mask][v] = source[v]

    edges: set[tuple[int, int]] = set()

    def expand(mask: int, v: int) -> None:
        anchor = walk_from[mask][v]
        for a, b in zip(p := shortest_path(g, anchor, v), p[1:]):
            edges.add(_norm_edge(a, b))
        if mask & (mask - 1) == 0:
            return
        sub = merge_split[mask][anchor]
        expand(sub, anchor)
        expand(mask ^ sub, anchor)

    expand(full, t0)

    # The reconstruction may overlap on ties; keep a spanning tree of it.
    nodes = {t0} | {n for e in edges for n in e}
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    tree_edges: set[tuple[int, int]] = set()
    seen = {t0}
    queue = [t0]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                tree_edges.add(_norm_edge(u, v))
                queue.append(v)

    weight = dp[full][t0]
    assert len(tree_edges) <= weight, "reconstruction exceeded the DP optimum"
    tree = SteinerTree(g, frozenset(term_list), root, frozenset(tree_edges))
    tree.validate()
    return tree


def line_graph(n: int) -> ConnectivityGraph:
    if n < 1:
        raise ValueError("line needs at least one node")
    return ConnectivityGraph(
        n, frozenset((i, i + 1) for i in range(n - 1)), name=f"line({n})"
    )


def grid_graph(rows: int, cols: int) -> ConnectivityGraph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.add((u, u + 1))
            if r + 1 < rows:
                edges.add((u, u + cols))
    return ConnectivityGraph(rows * cols, frozenset(edges), name=f"grid({rows},{cols})")


def complete_graph(n: int) -> ConnectivityGraph:
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return ConnectivityGraph(n, edges, name=f"complete({n})")


_NAMED_ARCH_FILES = {
    "bristlecone72": "bristlecone72.txt",
    "tokyo20": "tokyo20.txt",
    "acorn19": "acorn19.txt",
}


def parse_graph(text: str, name: str = "graph") -> ConnectivityGraph:
    """Parse the graph text format: "n m" then m lines "u v"; '#' comments.
    A bad header or edge line raises `ValueError` naming its number: an
    edge line must hold two distinct nodes in [0, n), not an edge given on
    an earlier line in either orientation."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty graph file")
    n, m = _int_pair(*lines[0], "'n m'")
    if n < 1:
        raise ValueError(f"line {lines[0][0]}: graph needs at least one node, got {n}")
    if m < 0:
        raise ValueError(f"line {lines[0][0]}: edge count must be >= 0, got {m}")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        u, v = _int_pair(lineno, line, "'u v'")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u},{v}) out of range for {n} nodes")
        edge = _norm_edge(u, v)
        if edge in edges:
            raise ValueError(f"line {lineno}: repeated edge ({u},{v})")
        edges.add(edge)
    return ConnectivityGraph(n, frozenset(edges), name=name)


def _int_pair(lineno: int, line: str, form: str) -> tuple[int, int]:
    """The two integers of a graph file line, which must read `form`."""
    try:
        u, v = map(int, line.split())
    except ValueError:
        raise ValueError(f"line {lineno}: expected {form}, two integers, got {line!r}") from None
    return u, v


def emit_graph(g: ConnectivityGraph) -> str:
    lines = [f"{g.node_count} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def builtin_architecture(name: str) -> ConnectivityGraph:
    """Return a named coupling graph.

    Accepts "bristlecone72", "tokyo20", "acorn19", "line(n)" and "grid(r,c)".
    The named device graphs are best-effort encodings shipped as data files;
    callers should rely only on node counts and connectivity.
    """
    key = name.strip().lower()
    if key in _NAMED_ARCH_FILES:
        data = (
            importlib.resources.files("steinersynth.architectures")
            .joinpath(_NAMED_ARCH_FILES[key])
            .read_text()
        )
        return parse_graph(data, name=key)
    m = re.fullmatch(r"line\((\d+)\)", key)
    if m:
        return line_graph(int(m.group(1)))
    m = re.fullmatch(r"grid\((\d+),\s*(\d+)\)", key)
    if m:
        return grid_graph(int(m.group(1)), int(m.group(2)))
    raise ValueError(
        f"unknown architecture {name!r}; known: {', '.join(list_architectures())}"
    )


def list_architectures() -> list[str]:
    return sorted(_NAMED_ARCH_FILES) + ["line(n)", "grid(r,c)"]


def random_connected_graph(n: int, sparseness: float, seed: int) -> ConnectivityGraph:
    """Sample each pair independently with probability `sparseness`, then
    reject and resample until the result is connected.  Deterministic in seed.
    Raises ValueError if no draw is connected (sparseness far too low).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < sparseness <= 1:
        raise ValueError("sparseness must lie in (0, 1]")
    rng = random.Random(seed)
    for _ in range(_GRAPH_DRAWS):
        edges = frozenset(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < sparseness
        )
        try:
            return ConnectivityGraph(
                n, edges, name=f"random(n={n},s={sparseness},seed={seed})"
            )
        except ValueError:
            continue
    raise ValueError(
        f"no connected graph after {_GRAPH_DRAWS} draws (n={n}, sparseness={sparseness})"
    )
