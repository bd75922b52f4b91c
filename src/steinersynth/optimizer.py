"""Commute-and-cancel peephole cleanup.

Runs to a fixpoint: identical CNOT or H pairs cancel and same-wire RZ
angles merge whenever one gate can commute up to the other within a bounded
lookahead window of surviving gates.  Gate count never increases, and the
unitary (up to global phase) never changes.

Each round scans gates in circuit order.  A gate is rescanned only when a
gate in the range its last scan examined was removed, or when it absorbed
an RZ merge itself; every other gate would repeat a no-op, so the result
equals rescanning every gate every round.

The scans run on plain integers.  Each gate is read once into a kind code
(CNOT 0, RZ 1, H 2) and its first and last wire (control and target of a
CNOT, the one wire otherwise), and there is one scan loop per kind of
scanned gate, with the rules of `universal.commutes` written out as integer
comparisons:

- CNOT (c, t): an identical CNOT cancels; a CNOT with control t or target c
  blocks, any other CNOT commutes; an RZ or H on t blocks, and so does an H
  on c; any other gate commutes.
- H on a: an H on a cancels; any other gate touching a blocks.
- RZ on a: an RZ on a merges; an H on a or a CNOT with target a blocks; any
  other gate commutes.

These equal `commutes`: `test_inlined_rules_match_commutes_on_three_wires`
in `tests/test_optimizer.py` checks them on every pair of gates on three
wires, against a reference pass that calls `commutes`.
"""

from __future__ import annotations

from array import array

from .circuits import Circuit, rz

DEFAULT_WINDOW = 32
_CNOT, _RZ, _H = 0, 1, 2
_KIND = {"cnot": _CNOT, "rz": _RZ, "h": _H}


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

    Scans read only the kind code and the first and last wire of each
    gate (see the module docstring for the rules per kind); the gates
    themselves are read for RZ angles and the result.
    """
    gates = list(c.gates)
    kind = bytes([_KIND[g.kind] for g in gates])
    first = [g.qubits[0] for g in gates]
    last = [g.qubits[-1] for g in gates]
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
            k, a, b = kind[i], first[i], last[i]
            j, seen, steps = nxt[i], i, 0
            if k == _CNOT:  # control a, target b
                while j < n and steps < window:
                    seen = j
                    steps += 1
                    x, y = first[j], last[j]
                    if kind[j] == _CNOT:
                        if x == a and y == b:
                            remove(i, i)
                            remove(j, i)
                            break
                        if x == b or y == a:  # control on b or target on a
                            break
                    elif y == b or (y == a and kind[j] == _H):  # RZ or H on b, H on a
                        break
                    j = nxt[j]
            elif k == _H:
                while j < n and steps < window:
                    seen = j
                    steps += 1
                    if first[j] == a or last[j] == a:
                        if kind[j] == _H:
                            remove(i, i)
                            remove(j, i)
                        break
                    j = nxt[j]
            else:  # RZ on a
                while j < n and steps < window:
                    seen = j
                    steps += 1
                    if last[j] == a:
                        if kind[j] != _RZ:  # H on a or CNOT with target a
                            break
                        merged = gates[i].angle + gates[j].angle
                        remove(j, i)
                        if merged.is_zero:
                            remove(i, i)
                            break
                        gates[i] = rz(merged, a)
                        later[i] = 1
                    j = nxt[j]
            stop[i] = seen
        i = queue.find(1, i + 1)
        if i < 0:
            queue, later = later, bytearray(n)
            i = queue.find(1)
    return Circuit(c.num_qubits, tuple(g for g, keep in zip(gates, alive) if keep))
