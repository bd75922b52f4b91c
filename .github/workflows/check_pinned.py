"""Compare `perfbench/run.py` output with the pinned-output table.

Usage: python3 .github/workflows/check_pinned.py BENCH_OUT SEED [SEED ...]

BENCH_OUT holds the stdout of one or more `perfbench/run.py` runs, traced
or not.  pinned_outputs.json, beside this script, has one entry per
(workload, seed): the `output_sha256` of the emitted circuits, the work
`counters` a traced run prints, by name, and a `recorded` reason.  The
`record` lines in BENCH_OUT must be exactly the table's entries at the
given SEEDs, one each, and each must carry its entry's digest.  Under a
record with `"trace": 1`, the metric lines must print every counter its
entry pins, with the pinned value; an untraced record prints no counters
and none is read.  Exits non-zero, naming each difference, on any
mismatch.

A change that alters circuits on purpose re-records the entries it moves,
each with a one-line reason in its `recorded` field, and lists them in
CHANGES.md, which keeps their history.  The counters count the work done,
not its speed, so a byte-identical refactor leaves them as they are.
What each counter shows, and what moves it:

- graphs.steiner_approx calls and tree_edges: the Steiner trees every
  synthesizer builds.  Any change to an elimination order, a fixup, the
  parity network or the segments a route hands them moves these.
- universal.partition_segments segments and gates_per_cnot_segment: how
  far segment growth merges a route's CNOT+RZ gates (route16 only).  A
  change to the growth passes or to merge_delete_h moves them.
- optimizer.cancel_pass gates_in and gates_removed: how large the
  synthesized circuits are when cleanup gets them, and what it cancels.
  Any change to a synthesizer's output moves them.
- cnot_synth.plan_pre_transpose and plan_post_transpose calls: the matrix
  elimination passes that build a ladder plan; the parity network builds
  none, so pre reads 0 everywhere.
- phase_synth.synth_parity_network_constrained cnots_out and calls: its
  output, and how many segments reach it; phase-free segments skip it.
- circuits.Circuit.depth calls: only the benchmark body takes a depth; a
  report reads its depth off its circuit when first read.
- phase_synth.synthesize_cnot_rz calls: only resynth's phase tasks call the
  public CNOT+RZ synthesizer; every route segment calls the shared body
  directly, so route16 reads 0.
- cnot_synth.expand_templates calls: a route's template expansion is
  counted off the graph's ladder table and built only when the route has
  more CNOTs; each such fallback route makes one expansion, of its whole
  H-reduced input (route16 has one at each seed).
- gf2.invert calls: no synthesizer or route runs a Gauss-Jordan pass;
  every fixup reads its target's inverse off CNOTs and the task's
  linear_inv.  The benchmark builds its sum-over-paths tasks with the
  public constructor, which inverts once, outside the timed body.
- gf2.simulate_cnot_circuit and gf2.multiply calls: nor does any simulate
  a CNOT circuit: the parity network hands over the map C it applied, and
  a fixup's inverse is C times the task's linear_inv, one multiply per
  network.  The simulations left are the benchmark's own matrix checks
  (resynth's 50 matrix tasks, paper-compare's two circuits per trial);
  route16 reads 0.
"""

import json
import sys
from pathlib import Path


def read_runs(text: str) -> list[tuple[dict, dict[str, float]]]:
    """Each `record` line's record, with the metrics printed under it:
    the lines `workload key value unit` up to the next record."""
    runs = []
    for line in text.splitlines():
        if line.startswith("record "):
            runs.append((json.loads(line.split(" ", 1)[1]), {}))
            continue
        parts = line.split()
        if runs and len(parts) == 4 and parts[0] == runs[-1][0]["workload"]:
            runs[-1][1][parts[1]] = float(parts[2])
    return runs


def main(bench_out: str, *seeds: str) -> None:
    table = json.loads(Path(__file__).with_name("pinned_outputs.json").read_text())
    checked = {int(seed) for seed in seeds}
    pins = {(e["workload"], e["seed"]): e for e in table if e["seed"] in checked}
    runs = read_runs(Path(bench_out).read_text())
    keys = [(record["workload"], record["seed"]) for record, _ in runs]
    errors = [f"{w} seed {s}: no record" for w, s in pins if (w, s) not in keys]
    for w, s in sorted(set(keys)):
        if (w, s) not in pins:
            errors.append(f"{w} seed {s}: a record with no entry at seeds {' '.join(seeds)}")
        elif keys.count((w, s)) > 1:
            errors.append(f"{w} seed {s}: {keys.count((w, s))} records")
    counters = 0
    for record, printed in runs:
        entry = pins.get((record["workload"], record["seed"]))
        if entry is None:
            continue
        where = f"{record['workload']} seed {record['seed']}"
        if record["output_sha256"] != entry["output_sha256"]:
            errors.append(f"{where}: output_sha256 {record['output_sha256']}, "
                          f"pinned {entry['output_sha256']}")
        if record["trace"]:
            for name, want in entry["counters"].items():
                got = printed.get(name, "missing")
                if got != want:
                    errors.append(f"{where}: {name} {got}, pinned {want}")
            counters += len(entry["counters"])
    if errors:
        sys.exit("pinned outputs changed:\n" + "\n".join(errors))
    print(f"pinned outputs unchanged: {len(runs)} digests, {counters} counters")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
