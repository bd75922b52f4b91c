"""Benchmark-owned input generators (stdlib ``random`` only).

Nothing here calls steinersynth, so a change to the package's own
generators cannot change a workload.  Every generator takes a
``random.Random`` and is deterministic in its state.

Plain data only: a matrix is a tuple of packed rows (bit j of row i is entry
(i, j)); a phase polynomial maps a nonzero parity mask to a Fraction of a
turn in [0, 1); a circuit is a list of ("cnot", c, t), ("rz", angle, q) and
("h", q) tuples; a graph is a frozenset of (u, v) edges with u < v.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

RZ_ANGLES = {"s": Fraction(1, 4), "t": Fraction(1, 8), "sdg": Fraction(3, 4), "tdg": Fraction(7, 8)}
RZ_SHARE = 0.01  # probability of each of s, t, sdg, tdg in a universal circuit


def rng_for(*key) -> random.Random:
    """A generator seeded by a string key, stable across Python versions."""
    return random.Random(":".join(str(k) for k in key))


def gf2_rank(rows, n: int) -> int:
    rows = list(rows)
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if (rows[i] >> col) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def invertible_matrix(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform invertible n x n GF(2) matrix by rejection."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if gf2_rank(rows, n) == n:
            return rows


def phase_instance(rng: random.Random, n: int, terms: int) -> tuple[dict[int, Fraction], tuple[int, ...]]:
    """`terms` distinct nonzero parities with eighth-turn angles, plus an
    invertible linear part."""
    phase: dict[int, Fraction] = {}
    while len(phase) < terms:
        mask = rng.getrandbits(n)
        if mask and mask not in phase:
            phase[mask] = Fraction(rng.randrange(1, 8), 8)
    return phase, invertible_matrix(rng, n)


def is_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_graph(rng: random.Random, n: int, p: float) -> frozenset[tuple[int, int]]:
    """Each pair an edge with probability p, redrawn until connected."""
    while True:
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        if is_connected(n, edges):
            return edges


def line_edges(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, i + 1) for i in range(n - 1))


def grid_edges(rows: int, cols: int) -> frozenset[tuple[int, int]]:
    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.add((u, u + 1))
            if r + 1 < rows:
                edges.add((u, u + cols))
    return frozenset(edges)


def parse_edge_file(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """Read the "n m" / "u v" edge-list format, '#' comments allowed."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = frozenset(tuple(sorted((int(u), int(v)))) for u, v in lines[1:])
    if len(lines) != m + 1 or len(edges) != m:
        raise ValueError("edge count does not match the header")
    return n, edges


def prefix_edges(edges, k: int) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for u, v in edges if v < k)


def universal_circuit(rng: random.Random, n: int, gates: int, p_h: float) -> list[tuple]:
    """Random {CNOT, S, T, Sdg, Tdg, H} circuit; each non-CNOT kind has its
    fixed share, H has p_h and CNOT the rest; wires drawn uniformly."""
    kinds = ["cnot", "h"] + sorted(RZ_ANGLES)
    weights = [1 - p_h - RZ_SHARE * len(RZ_ANGLES), p_h] + [RZ_SHARE] * len(RZ_ANGLES)
    out: list[tuple] = []
    for _ in range(gates):
        kind = rng.choices(kinds, weights)[0]
        if kind == "cnot":
            c, t = rng.sample(range(n), 2)
            out.append(("cnot", c, t))
        elif kind == "h":
            out.append(("h", rng.randrange(n)))
        else:
            out.append(("rz", RZ_ANGLES[kind], rng.randrange(n)))
    return out


def circuit_text(n: int, gates) -> str:
    """The steinersynth circuit text format (rz angles as reduced p/q)."""
    lines = [f"qubits {n}"]
    for g in gates:
        if g[0] == "cnot":
            lines.append(f"cnot {g[1]} {g[2]}")
        elif g[0] == "rz":
            lines.append(f"rz {g[1].numerator}/{g[1].denominator} {g[2]}")
        else:
            lines.append(f"h {g[1]}")
    return "\n".join(lines) + "\n"


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()
