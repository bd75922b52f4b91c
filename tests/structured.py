"""Structured {CNOT, RZ, H} circuits: Toffoli chains, QAOA layers and the
Cuccaro ripple-carry adder, as test inputs for `route`.

Random circuits cut into long CNOT+RZ segments; these cut into short ones
(about 7-11 gates each), where a segment's own gates, expanded into
ladders, often beat its resynthesis.  All are deterministic given their
arguments.
"""

from __future__ import annotations

import random

from steinersynth.circuits import Angle, Circuit, Gate, cnot, h, rz

T, TDG = Angle(1, 8), Angle(7, 8)


def toffoli(a: int, b: int, c: int) -> list[Gate]:
    """The Clifford+T Toffoli with controls a, b and target c: 6 CNOTs,
    7 T or Tdg gates and 2 H gates (Nielsen and Chuang, figure 4.9)."""
    return [
        h(c), cnot(b, c), rz(TDG, c), cnot(a, c), rz(T, c), cnot(b, c), rz(TDG, c),
        cnot(a, c), rz(T, b), rz(T, c), h(c), cnot(a, b), rz(T, a), rz(TDG, b), cnot(a, b),
    ]


def toffoli_chain(n: int, count: int, seed: int) -> Circuit:
    """`count` Toffolis, each on three distinct wires drawn at random."""
    rng = random.Random(seed)
    gates: list[Gate] = []
    for _ in range(count):
        gates += toffoli(*rng.sample(range(n), 3))
    return Circuit(n, tuple(gates))


def qaoa(n: int, edge_count: int, layers: int, seed: int) -> Circuit:
    """MaxCut QAOA on a random graph of `edge_count` edges: H on every
    wire, then per layer a CNOT-RZ-CNOT per edge and an H-RZ-H mixer per
    wire, the angles k/32 turns drawn per layer."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, edge_count)
    gates: list[Gate] = [h(q) for q in range(n)]
    for _ in range(layers):
        gamma, beta = Angle(rng.randrange(1, 32), 32), Angle(rng.randrange(1, 32), 32)
        for u, v in edges:
            gates += [cnot(u, v), rz(gamma, v), cnot(u, v)]
        for q in range(n):
            gates += [h(q), rz(beta, q), h(q)]
    return Circuit(n, tuple(gates))


def cuccaro_adder(bits: int) -> Circuit:
    """The Cuccaro ripple-carry adder of two `bits`-bit numbers on
    2 * bits + 2 wires: carry-in on wire 0, then b_i and a_i on wires
    2i + 1 and 2i + 2, and the carry-out on the last wire."""
    b = [2 * i + 1 for i in range(bits)]
    a = [2 * i + 2 for i in range(bits)]
    carry = [0] + a[:-1]

    def maj(x: int, y: int, z: int) -> list[Gate]:
        return [cnot(z, y), cnot(z, x), *toffoli(x, y, z)]

    def uma(x: int, y: int, z: int) -> list[Gate]:
        return [*toffoli(x, y, z), cnot(z, x), cnot(x, y)]

    gates: list[Gate] = []
    for i in range(bits):
        gates += maj(carry[i], b[i], a[i])
    gates.append(cnot(a[-1], 2 * bits + 1))
    for i in reversed(range(bits)):
        gates += uma(carry[i], b[i], a[i])
    return Circuit(2 * bits + 2, tuple(gates))
