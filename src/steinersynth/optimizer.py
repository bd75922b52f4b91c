"""Commute-and-cancel peephole cleanup.

Runs to a fixpoint: identical CNOT or H pairs cancel and same-wire RZ
angles merge whenever one gate can commute up to the other within a bounded
lookahead window of surviving gates.  Gate count never increases, and the
unitary (up to global phase) never changes.

Each round scans gates in circuit order.  A gate is rescanned only when a
gate in the range its last scan examined was removed, or when it absorbed
an RZ merge itself; every other gate would repeat a no-op, so the result
equals rescanning every gate every round.
"""

from __future__ import annotations

from array import array

from .circuits import Circuit, rz
from .universal import commutes

DEFAULT_WINDOW = 32


def cancel_pass(c: Circuit, window: int = DEFAULT_WINDOW) -> Circuit:
    """Cancel CNOT/H pairs and merge same-wire RZs until nothing changes.

    A scan from gate i walks forward over at most `window` surviving gates
    (merged RZs count), stopping at the first gate it cannot commute past.
    Rounds scan in position order; gates removed earlier in a round are
    skipped.  Gates keep their input positions in a doubly linked list of
    survivors, and stop[i] records the last position the latest scan of i
    examined (its blocker, the last gate in its window, or the last gate).
    When the gate at p is removed, the up to `window` survivors before p
    whose scans reached p are queued again: into this round if they come
    after the gate being scanned, else into the next.  An RZ that absorbed
    merges and survives is queued for the next round.  Its new angle needs
    no requeue: only an RZ on the same wire reads it, and that would have
    merged it.
    """
    gates = list(c.gates)
    n = len(gates)  # also the "no next gate" mark
    nxt = array("i", range(1, n + 1))
    prv = array("i", range(-1, n - 1))
    alive = bytearray(b"\x01") * n
    stop = array("i", [n]) * n
    queue = bytearray(b"\x01") * n  # this round
    later = bytearray(n)  # next round

    def remove(p: int, cur: int) -> None:
        alive[p] = 0
        a, b = prv[p], nxt[p]
        if a >= 0:
            nxt[a] = b
        if b < n:
            prv[b] = a
        k = a
        for _ in range(window):
            if k < 0:
                return
            if stop[k] >= p:
                if k > cur:
                    queue[k] = 1
                else:
                    later[k] = 1
            k = prv[k]

    i = queue.find(1)
    while i >= 0:
        if alive[i]:
            g = gates[i]
            is_rz = g.kind == "rz"
            j, last, steps = nxt[i], i, 0
            while j < n and steps < window:
                other = gates[j]
                last = j
                steps += 1
                if not is_rz and other.qubits == g.qubits and other == g:
                    remove(i, i)
                    remove(j, i)
                    break
                if is_rz and other.kind == "rz" and other.target == g.target:
                    merged = g.angle + other.angle
                    remove(j, i)
                    if merged.is_zero:
                        remove(i, i)
                        break
                    gates[i] = g = rz(merged, g.target)
                    later[i] = 1
                elif not commutes(g, other):
                    break
                j = nxt[j]
            stop[i] = last
        i = queue.find(1, i + 1)
        if i < 0:
            queue, later = later, bytearray(n)
            i = queue.find(1)
    return Circuit(c.num_qubits, tuple(g for g, keep in zip(gates, alive) if keep))
