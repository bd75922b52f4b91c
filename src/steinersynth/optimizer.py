"""Commute-and-cancel peephole cleanup.

Runs to a fixpoint: identical CNOT or H pairs cancel and same-wire RZ
angles merge whenever one gate can commute up to the other within a bounded
lookahead window of surviving gates.  Gate count never increases, and the
unitary (up to global phase) never changes.

Each round scans gates in circuit order.  A gate is rescanned only when a
gate in the range its last scan examined was removed, or when it absorbed
an RZ merge itself; every other gate would repeat a no-op, so the result
equals rescanning every gate every round.  A rescan resumes where the last
scan stopped.  Gates are only ever removed, or merged in place as RZs of
the same wire pair, so the survivors that scan passed still neither
block nor match the gate: they only count toward its window.

The first round is settled with arrays.  Nothing has been removed when it
begins, so every gate's first scan can be read off the unmodified circuit:
numpy compares each gate with the gate at offset 1 over the whole circuit,
then the gates that meet nothing there with offsets 2 to `window`, in
chunks.  That gives each gate the position its scan stops at and whether
it stops at a cancel or merge.  Only those event gates are queued for the
first round; the scan loop in `_survivors`, the only scan implementation,
runs on them and on whatever a removal requeues.

The scans run on plain integers.  Each gate packs its wire pair (x, y)
into `Gate._code` when it is built: (control, target) for a CNOT, (q, q)
for an H on q and (q, -1) for an RZ on q.  The pair alone identifies the
gate, since only an H has x == y and only an RZ has y == -1, and `_decode`
unpacks the pairs of the whole circuit with array shifts.  `cancel_pass`
is `_decode`, then `_survivors` on those arrays, then the surviving gates.
The matrix baselines (`pipeline._routed_elimination`) build the pairs of
each candidate straight from elimination's ops and call `_survivors`
themselves, so only the winner's gates are ever built.

One rule on the pairs serves every kind of gate.  A scan from (a, b)
cancels an equal pair, or merges it when b == -1 (an RZ), and stops at
the first (x, y) with x == b or y == a; every other gate commutes.  That
is the rule of the reference commutation test (`commutes` in
`tests/conftest.py`) for every pair of kinds:

- CNOT (c, t): an identical CNOT cancels; a CNOT with control t or target
  c blocks, and so do an RZ on t (x == t) and an H on c or t (x == y).
- H on a: an H on a cancels; every other gate touching a blocks, as a
  CNOT's control or an RZ's wire (x == a) or a CNOT's target (y == a).
- RZ on a: an RZ on a merges; a CNOT with target a or an H on a blocks
  (y == a); an RZ on another wire has x != -1 and y == -1 != a, so it
  commutes, and so does a CNOT with control a.

`partition_segments` in `universal` grows its segments by the same rule,
with its spare wire n in place of the -1.
`test_inlined_rules_match_commutes_on_three_wires` in
`tests/test_optimizer.py` checks the scan on every pair of gates on three
wires, against a reference pass that calls `commutes`.  `_meets` writes
the same rule as array expressions for the first round.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import attrgetter

import numpy as np

from .circuits import Circuit, rz

DEFAULT_WINDOW = 32
_CHUNK = 1 << 12  # window offsets held at once: keeps the first round's temporaries small


def _decode(gates) -> tuple[np.ndarray, np.ndarray]:
    """The wire pairs (x, y) of the gates, as two np.intc arrays, unpacked
    with shifts from the `Gate._code` each gate packed when it was built:
    x from the high bits, y from the low 32 bits read as signed, so an RZ's
    -1 comes back.  A gate with a wire outside [0, 2**31) raises
    OverflowError."""
    codes = np.fromiter(map(attrgetter("_code"), gates), np.uint64, len(gates))
    return (codes >> 32).astype(np.intc), codes.astype(np.uint32).view(np.intc)


def _meets(a, b, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Whether a scan of gate (a, b) stops at gate (x, y), and whether it
    stops there with a cancel or merge: the scan loop's rule, broadcast."""
    match = (x == a) & (y == b)
    return match | (x == b) | (y == a), match


def _first_round(first, last, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Every gate's first scan on the unmodified circuit: the last position
    it examines, and whether it ends in a cancel or merge there."""
    n = len(first)
    pos = np.arange(n, dtype=np.intc)
    stop = np.minimum(pos + min(max(window, 0), n), n - 1)  # met nothing in its window
    event = np.zeros(n, dtype=bool)
    if window < 1 or n < 2:
        return stop, event
    hit, event[:-1] = _meets(first[:-1], last[:-1], first[1:], last[1:])
    stop[:-1][hit] = pos[1:][hit]
    rest = np.flatnonzero(~hit)
    offsets = np.arange(2, min(window, n - 1) + 1)
    if not len(offsets):
        return stop, event
    rows = max(1, _CHUNK // len(offsets))
    for lo in range(0, len(rest), rows):
        r = rest[lo:lo + rows]
        # Offsets past the end read the last gate again, which each row
        # already meets or passes at its own offset, so argmax never picks one.
        j = np.minimum(r[:, None] + offsets, n - 1)
        hit, match = _meets(first[r, None], last[r, None], first[j], last[j])
        at = hit.argmax(axis=1)
        found = np.flatnonzero(hit[np.arange(len(r)), at])
        at = at[found]
        stop[r[found]] = j[found, at]
        event[r[found]] = match[found, at]
    return stop, event


def cancel_pass(c: Circuit, window: int = DEFAULT_WINDOW) -> Circuit:
    """Cancel CNOT/H pairs and merge same-wire RZs until nothing changes:
    the gates `_survivors` keeps, with the RZs it merged."""
    gates = list(c.gates)
    alive = _survivors(*_decode(gates), window, gates)
    return Circuit._unchecked(c.num_qubits, tuple(compress(gates, alive)))


def _survivors(firsts, lasts, window: int, gates) -> bytearray:
    """The cleanup of the gates whose wire pairs (x, y) are `firsts` and
    `lasts` (np.intc, as `_decode` gives them): a mask of the surviving
    positions, 1 for a survivor.  An RZ that absorbs merges is rewritten in
    `gates[i]`, the only read of the gates themselves, so a scan with no RZ
    may pass None for them.

    A scan from gate i walks forward over at most `window` surviving gates
    (merged RZs count), stopping at the first gate it cannot commute past.
    Rounds scan in position order; gates removed earlier in a round are
    skipped.  Gates keep their input positions in a doubly linked list of
    survivors, and stop[i] records the last position the latest scan of i
    examined (its blocker, the last gate in its window, or the last gate).

    The first round's stops come from `_first_round`, which reads them off
    the unmodified circuit, and its queue holds only the gates whose first
    scan cancels or merges.  Every other gate's first scan would change
    nothing, and it stays exact for as long as no gate in its range is
    removed; when one is, the requeue rule below scans it again at its
    turn, as the full round would have.

    When the gate at p is removed, every survivor before p whose latest
    scan reached p is queued again: into this round if it comes after the
    gate being scanned, else into the next.  Those survivors are p's
    predecessor and the "far" gates, whose latest scan went past their
    immediate successor (far[k] is set).  A scan that stopped at its
    immediate successor s reached a removed p only if p == s, and then no
    gate lies between it and p, so it is p's predecessor.  Far gates are
    found with `bytearray.rfind`, walking back from p no further than
    `reach`, the longest far scan so far in positions, and stopping once
    `window` survivors lie between: a scan from there would have needed
    more than `window` steps to reach p.  When a cancelled pair (i, j) is
    removed, the search for j stops at i: a scan from before i that reached
    j passed i and was queued when i was removed.  An RZ that absorbed
    merges and survives is queued for the next round.  Its new angle needs
    no requeue: only an RZ on the same wire reads it, and that would have
    merged it.

    A rescan of i whose stop[i] lies past its current successor starts at
    stop[i] instead of the successor.  The survivors strictly between them
    passed i's latest scan and still do (see the module docstring), so they
    are counted toward the window with `alive.count`, and the scan goes on
    from the first survivor at or after stop[i] (`alive.find`); with none
    left, stop[i] becomes the last survivor passed.  They number fewer than
    `window`, as they did when stop[i] was recorded, so the window still
    reaches the first survivor at or after stop[i].  A queued gate's stop
    lies past it, since its latest scan took a step, and a stop at or before
    the successor gives the scan from the successor: the check only skips
    the counting there.

    Scans read only the wire pair of each gate, and one loop serves every
    kind, by the module docstring's rule: a scan from (a, b) cancels an
    equal pair, or merges it when b == -1 (an RZ), and stops at the first
    (x, y) with x == b or y == a.
    """
    n = len(firsts)  # also the "no next gate" mark
    stops, events = _first_round(firsts, lasts, window)
    first, last = array("i", firsts.tobytes()), array("i", lasts.tobytes())
    after = np.arange(1, n + 1, dtype=np.intc)
    nxt = array("i", after.tobytes())
    prv = array("i", (after - 2).tobytes())
    stop = array("i", stops.tobytes())
    far = bytearray((stops > after).tobytes())
    queue = bytearray(events.tobytes())  # this round
    del firsts, lasts, stops, events, after  # free before the loop allocates
    alive = bytearray(b"\x01") * n
    later = bytearray(n)  # next round
    reach = window  # stop[k] - k <= reach for every far k

    def remove(p: int, cur: int, floor: int = 0) -> None:
        alive[p] = far[p] = 0
        a, b = prv[p], nxt[p]
        if a >= 0:
            nxt[a] = b
            if stop[a] >= p:
                if a > cur:
                    queue[a] = 1
                else:
                    later[a] = 1
        if b < n:
            prv[b] = a
        lo = p - reach if p - reach > floor else floor
        k = far.rfind(1, lo, p)
        hi, between = p, 0  # survivors in [hi, p)
        while k >= 0:
            if stop[k] >= p:
                if k > cur:
                    queue[k] = 1
                else:
                    later[k] = 1
            elif p - k >= window:  # nearer, fewer than window survivors lie between
                between += alive.count(1, k, hi)
                if between >= window:
                    break  # no scan from k or before it can have reached p
                hi = k
            k = far.rfind(1, lo, k)

    i = queue.find(1)
    while i >= 0:
        if alive[i]:
            a, b = first[i], last[i]
            j, seen, steps = nxt[i], i, 0
            succ, s = j, stop[i]
            if s > j:  # resume at the recorded stop; the survivors before it pass
                steps = alive.count(1, j, s)
                j = alive.find(1, s)
                if j < 0:
                    j, seen = n, alive.rfind(1, i, s)
            while j < n and steps < window:
                seen = j
                steps += 1
                x, y = first[j], last[j]
                if x == a and y == b:
                    if b >= 0:  # a CNOT or an H: the pair cancels
                        remove(i, i)
                        remove(j, i, i)
                        break
                    merged = gates[i].angle + gates[j].angle
                    remove(j, i)
                    if merged.is_zero:
                        remove(i, i)
                        break
                    gates[i] = rz(merged, a)
                    later[i] = 1
                elif x == b or y == a:
                    break
                j = nxt[j]
            stop[i] = seen
            if seen > succ and alive[i]:
                far[i] = 1
                if seen - i > reach:
                    reach = seen - i
            else:
                far[i] = 0
        i = queue.find(1, i + 1)
        if i < 0:
            queue, later = later, bytearray(n)
            i = queue.find(1)
    return alive
