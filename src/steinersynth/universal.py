"""Routing pipeline for circuits over {CNOT, RZ, H}.

Hadamard gates break the phase-polynomial picture, so the circuit is cut
into alternating H-only and CNOT+RZ segments.  A commutation heuristic
grows the CNOT+RZ segments as large as possible, one pass backward and
then one forward, and the H gates need no routing.  Each pass visits the
gates in their current block order (last gate first forward), so every
block a moving gate reaches has been visited whole, and one wire-mask
test settles it (`partition_segments`).
The route carries a pending linear residual across the H runs: each
CNOT+RZ segment is resynthesized in the frame the gates emitted so far
leave, and its fixup only frees each qubit of the next H run, alone on a
wire of the fixup's choosing, where its H runs; the next segment takes
over the rest, and the last segment's fixup clears every wire, so both
ends keep the identity layout; no fixup inverts a matrix.
There is one route and one rule: when the route has more CNOTs before
cleanup than the template expansion of the H-reduced input, with every
long-range CNOT expanded into a ladder of 4(l-1) edge CNOTs, that
expansion is returned instead.  So no route has more CNOTs before cleanup
than the template expansion of its H-reduced input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuits import Angle, Circuit, Gate, h, rz
from .cnot_synth import SynthesisReport, _expanded_cnot_count, _report, expand_templates
from .gf2 import BinaryMatrix, _transposed_times_inverse
from .graphs import ConnectivityGraph, _check_width
from .phase_synth import PhasePolynomial, _frame, _read_path_sum, _synthesize_up_to

_S = Angle(1, 4)
_SDG = Angle(3, 4)


def merge_delete_h(c: Circuit) -> Circuit:
    """Reduce the Hadamard count by pair deletion and S-conjugation merges.

    Two H gates on a wire with nothing touching that wire between them
    cancel.  An H / S-or-Sdg / H sandwich on a wire rewrites to the
    conjugated form with a single H (equal up to global phase).  Rewrites
    apply to the lowest H that has one, until no H has one.

    A rewrite reads and writes the gates of one wire only, and a CNOT or
    any other RZ on the wire blocks both rules, so each wire is reduced on
    its own, in one pass: `runs[q]` holds the positions of the H, S and Sdg
    gates on wire q since its last blocker, with no rule applying among
    them.  Each new H on q can only complete a rule as the last gate of a
    pair or sandwich, and that rule is the lowest one to apply.  After it
    applies the run again has no rule: a cancelled pair leaves a prefix of
    the run, and a sandwich becomes an Sdg-or-S / H / Sdg-or-S whose first
    gate follows no H, since an H before the old sandwich's H would have
    cancelled with it.
    """
    gates: list[Gate | None] = list(c.gates)
    runs: list[list[int]] = [[] for _ in range(c.num_qubits)]
    for p, g in enumerate(gates):
        if g.kind == "cnot":
            runs[g.qubits[0]].clear()
            runs[g.qubits[1]].clear()
            continue
        q = g.qubits[0]
        run = runs[q]
        if g.kind == "rz":
            if g.angle in (_S, _SDG):
                run.append(p)
            else:
                run.clear()
        elif run and gates[run[-1]].kind == "h":
            gates[run.pop()] = gates[p] = None
        else:
            if len(run) > 1 and gates[run[-2]].kind == "h":  # H, S or Sdg, this H
                i, j = run[-2], run[-1]
                conj = rz(-gates[j].angle, q)
                gates[i], gates[j], gates[p] = conj, h(q), conj
            run.append(p)
    return Circuit._unchecked(c.num_qubits, tuple(filter(None, gates)))


_SEGMENT_KINDS = {"h_block": ("h",), "cnot_block": ("cnot", "rz")}


@dataclass(frozen=True)
class Segment:
    """One alternation block: kind is "h_block" or "cnot_block"."""

    kind: str
    gates: tuple[Gate, ...]

    def __post_init__(self):
        want = _SEGMENT_KINDS.get(self.kind)
        if want is None:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        for g in self.gates:
            if g.kind not in want:
                raise ValueError(f"{g.kind} gate inside a {self.kind}")


def partition_segments(c: Circuit) -> list[Segment]:
    """Cut into alternating H / CNOT+RZ segments, grown by commutation.

    After the naive cut, every CNOT+RZ gate is commuted backward as far as
    possible and dropped into the largest reachable segment (ties go to the
    earlier one); a second pass repeats the process commuting forward.  Each
    pass visits the CNOT+RZ gates in the block order it starts from, last
    gate first forward.

    The tests run on plain integers.  On n wires, each gate is read once
    into a pair of wires: a CNOT as (control, target), an RZ on q as (q, n),
    with n a wire no gate touches, and an H on q as (q, q).  A mover (a, b),
    always a CNOT or an RZ, then fails to commute with a gate (x, y) exactly
    when x == b or y == a, which is the rule of the reference commutation
    test (`commutes` in `tests/conftest.py`) for every such pair: a CNOT
    (c, t) is blocked by a CNOT with control t or target c, by an RZ on t
    and by an H on c or t; an RZ on q by a CNOT with target q and by an H
    on q.  The commute-and-cancel cleanup (`optimizer`) scans by the same
    rule on the same pairs, with -1 where this reading puts n; this one
    keeps its own reading, because the mask arithmetic below needs a
    non-negative wire for an RZ's y.

    So a set of gates has a wire mask, bit x for each gate's x and bit
    n + 1 + y for each y, and it blocks the mover exactly when the mask
    shares a bit with the mover's probe, bits b and n + 1 + a.  Each pass
    starts every CNOT+RZ block's mask empty and adds to it each gate it
    visits that stays there and each that arrives, so one mask test settles
    a block:

    - Own block.  The gates a mover must pass in its own block are those
      the pass visited there before it, less those that left.  None has
      arrived yet: a pass visits the blocks against the direction its
      gates move, so a gate arrives only from a block visited later.  So
      the mask holds exactly them.
    - Later blocks.  Every block a mover scans was visited whole before
      it, and no gate leaves a visited block, so a CNOT+RZ block's mask is
      that of the gates that stayed plus those that arrived; H blocks
      never change.  A block whose mask misses the probe is passed.  One
      that hits it ends the scan, and its head in scan order decides
      whether it counts first.

    `tests/test_universal.py` checks the result against a reference pass
    that calls the commutation oracle gate by gate.
    """
    gates = c.gates
    n = c.num_qubits
    m = n + 1  # bit m + y of a mask stands for y
    # blocks[i] holds gate uids; kinds[i] alternates between block kinds.
    kinds: list[str] = []
    blocks: list[list[int]] = []
    where: list[int] = []  # uid -> index of the block holding it
    first: list[int] = []  # uid -> x of its wire pair (x, y)
    second: list[int] = []  # uid -> y
    for uid, g in enumerate(gates):
        first.append(g.qubits[0])
        second.append(n if g.kind == "rz" else g.qubits[-1])
        kind = "h_block" if g.kind == "h" else "cnot_block"
        if not kinds or kinds[-1] != kind:
            bi = len(blocks)
            kinds.append(kind)
            blocks.append([])
        blocks[bi].append(uid)
        where.append(bi)
    # Per block: the wire mask of an H block, which never changes, and the
    # size of a CNOT+RZ block; an H block has size -1, so it is never a
    # destination.
    h_masks = [0] * len(blocks)
    sizes = [-1] * len(blocks)
    for bi, blk in enumerate(blocks):
        if kinds[bi] == "cnot_block":
            sizes[bi] = len(blk)
            continue
        for uid in blk:
            h_masks[bi] |= 1 << first[uid]
        h_masks[bi] |= h_masks[bi] << m

    def destination(a: int, b: int, probe: int, bi: int, forward: bool) -> int:
        """Largest CNOT block the mover (a, b), which passes its own block,
        reaches before its first blocker.

        A block counts once its first gate in scan order has been passed, so
        empty blocks never count and the blocker's block only with a
        commuting gate ahead of the blocker.  Ties go to the earlier block,
        which a backward scan reaches later.
        """
        # A block beats `best` when its size exceeds `bar`: strictly larger
        # forward, at least as large backward, as ties go to the earlier block.
        best, bar = bi, sizes[bi] - (not forward)
        for ob in range(bi + 1, len(blocks)) if forward else range(bi - 1, -1, -1):
            if masks[ob] & probe:
                head = blocks[ob][0 if forward else -1]
                if first[head] == b or second[head] == a or sizes[ob] <= bar:
                    return best
                return ob
            if sizes[ob] > bar:
                best, bar = ob, sizes[ob] - (not forward)
        return best

    def move(uid: int, bi: int, best: int, forward: bool) -> None:
        blocks[bi].remove(uid)
        if forward:
            blocks[best].insert(0, uid)
        else:
            blocks[best].append(uid)
        where[uid] = best
        sizes[bi] -= 1
        sizes[best] += 1

    # Each pass starts every CNOT+RZ block's mask empty and adds each mover
    # that stays there or arrives, visiting gates in block order (last gate
    # first forward), so every block a mover reads was visited whole.
    for forward in False, True:
        movers = [uid for kind, blk in zip(kinds, blocks) if kind == "cnot_block" for uid in blk]
        masks = h_masks.copy()
        for uid in reversed(movers) if forward else movers:
            bi, a, b = where[uid], first[uid], second[uid]
            probe = 1 << b | 1 << m + a
            best = bi if masks[bi] & probe else destination(a, b, probe, bi, forward)
            masks[best] |= 1 << a | 1 << m + b
            if best != bi:
                move(uid, bi, best, forward)

    return [
        Segment(kind, tuple(map(gates.__getitem__, blk)))
        for kind, blk in zip(kinds, blocks)
        if blk
    ]


def _ladder_cnots(gates, g: ConnectivityGraph) -> int:
    """The CNOT count of `expand_templates` on these gates, read off the
    graph's ladder table without building a gate."""
    return _expanded_cnot_count((gate.qubits for gate in gates if gate.kind == "cnot"), g)


def _route(segments: list[Segment], g: ConnectivityGraph) -> Circuit:
    """The route: each H runs on the wire its qubit sits alone on, and each
    CNOT+RZ segment is resynthesized in the frame the gates emitted so far
    leave.

    The gates emitted so far equal a pending linear residual R applied
    after the input's prefix; R starts as the identity, and both R and R⁻¹
    are kept.  A CNOT+RZ segment is read in the emitted frame: its wires
    start as the rows of R⁻¹, so each parity p of its phase polynomial
    becomes p·R⁻¹ and its linear part B becomes B·R⁻¹.  Its frame
    (`_frame`) carries that product of CNOTs with its inverse R·B⁻¹, read
    transposed off the same CNOTs (`_transposed_times_inverse`) and
    transposed back, so no fixup inverts a matrix.

    Its synthesis (`_synthesize_up_to`) ends with a fixup up to its stop
    set and returns the new R⁻¹ and R.  A segment followed by another
    CNOT+RZ segment stops at the qubits of every H block between them: its
    fixup frees only those, each qubit q alone on a wire w, so row q of
    R⁻¹ is e_w and column w is e_q.  So each H of q runs on wire w, the one
    set bit of row q of R⁻¹, where it commutes with R as an H on q and
    meets the parity it meets in the input.  The last fixup is full, so R
    ends as the identity and the output applies exactly the input, with
    no output permutation.
    """
    n = g.node_count
    r = r_inv = BinaryMatrix.identity(n)
    cnot_at = [k for k, seg in enumerate(segments) if seg.kind == "cnot_block"]
    stops = {k: frozenset(gate.target for block in segments[k + 1:j] for gate in block.gates)
             for k, j in zip(cnot_at, cnot_at[1:])}
    gates: list[Gate] = []
    for k, seg in enumerate(segments):
        if seg.kind == "h_block":
            gates.extend(h(r_inv.rows[gate.target].bit_length() - 1) for gate in seg.gates)
            continue
        wires = list(r_inv.rows)
        terms, _ = _read_path_sum(seg.gates, wires)
        frame = _frame(PhasePolynomial(n, terms), BinaryMatrix._unchecked(n, tuple(wires)),
                       _transposed_times_inverse(r, seg.gates).transpose())
        circuit, r_inv, r = _synthesize_up_to(frame, g, stops.get(k))
        gates.extend(circuit.gates)
    return Circuit._unchecked(n, tuple(gates))


def route_universal(
    c: Circuit, g: ConnectivityGraph
) -> tuple[Circuit, SynthesisReport]:
    """Route a {CNOT, RZ, H} circuit onto the coupling graph.

    Every CNOT+RZ segment is resynthesized with the linear residual
    carried across the H runs (`_route`): each segment's fixup frees only
    the qubits of the next H run, each on a wire of its choosing where its
    H runs, and the last one clears every wire.  When that route has more
    CNOTs than the template expansion of the H-reduced input, the
    expansion is returned instead, so a route never has more CNOTs before
    cleanup than that expansion.  Wire numbering is the identity map at
    both ends.  Raises ValueError unless `c` has one wire per graph node,
    the one check `pipeline.run` makes of a circuit task under its Steiner
    method.
    """
    t0 = time.perf_counter()
    _check_width(c.num_qubits, g)
    reduced = merge_delete_h(c)
    circuit = _route(partition_segments(reduced), g)
    if circuit.cnot_count > _ladder_cnots(reduced.gates, g):
        circuit = expand_templates(reduced, g)
    return circuit, _report("route", g.name, circuit, t0)
