"""Run one steinersynth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload resynth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one thread, closed loop: instances are compiled one
at a time, in a fixed order, in whole passes until ``--seconds`` would be
exceeded (with a per-workload minimum of passes).  Every pass must emit
byte-identical circuits.  After the timed loop each output of the first
pass is checked by the benchmark's own code (see check.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the first pass runs untraced and the rest traced, and the
last line holds the per-layer metrics.  Spans are written to
``.perfbench/``.  Exit code 0 when every output checks out, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # for confirming a claimed gain; not used while tuning
SETUP_REPEATS = 7
NAMES = ("resynth", "route16", "paper-compare")

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {root!r}]
import steinersynth.cli
from perfbench import workloads
workloads.workload_graphs({name!r}, workloads.Path({root!r}))
t1 = time.perf_counter()
from perfbench.speed import SpeedProbe
print(t1 - t0, SpeedProbe().probe())
"""


def setup_seconds(name: str) -> float:
    """Median, over fresh processes, of importing steinersynth (CLI
    included) and building the workload's graphs, at reference speed: each
    process probes the machine speed right after it is set up."""
    from perfbench.speed import scaled

    code = SETUP_PROBE.format(src=str(SRC), root=str(ROOT), name=name)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        seconds, probe = map(float, out.stdout.split()[-2:])
        times.append(scaled(seconds, probe))
    return statistics.median(times)


def run_record(name: str, seed: int, insts) -> dict:
    from importlib import metadata

    import numpy

    from perfbench import gen

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "instances_per_pass": len(insts),
        "input_sha256": gen.digest(i.text for i in insts),
        "output_sha256": gen.digest(t for i in insts for t in i.outputs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def percentile(values, pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, passes: int, overhead: float) -> dict:
    from perfbench.tracing import TRACED, self_times

    own = self_times(tracer.spans)
    c = tracer.counts
    out = {}
    for modname, attr in TRACED:
        name = f"{modname}.{attr}"
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / passes, "count")
        out[f"{name}.self_s"] = (own.get(name, 0.0) / passes, "s")
    for key in (
        "graphs.steiner_approx.tree_edges",
        "cnot_synth.synthesize_constrained.cnots_out",
        "cnot_synth.expand_templates.gates_out",
        "phase_synth.synth_parity_network_constrained.cnots_out",
        "universal.merge_delete_h.h_in",
        "universal.merge_delete_h.h_out",
        "universal.partition_segments.segments",
        "optimizer.cancel_pass.gates_in",
        "optimizer.cancel_pass.gates_removed",
    ):
        out[key] = (c.get(key, 0) / passes, "count")
    plans = sum(c.get(f"cnot_synth.plan_{p}_transpose.under_synth", 0) for p in ("pre", "post"))
    trees = c.get("graphs.steiner_approx.under_synth", 0)
    out["cnot_synth.restoring_share"] = (plans / trees if trees else 0.0, "ratio")
    blocks = c.get("universal.partition_segments.cnot_segments", 0)
    gates = c.get("universal.partition_segments.cnot_segment_gates", 0)
    out["universal.partition_segments.gates_per_cnot_segment"] = (gates / blocks if blocks else 0.0, "count")
    gin = c.get("optimizer.cancel_pass.gates_in", 0)
    removed = c.get("optimizer.cancel_pass.gates_removed", 0)
    out["optimizer.cancel_pass.removed_share"] = (removed / gin if gin else 0.0, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import steinersynth as ss

    from perfbench import workloads
    from perfbench.speed import SpeedClock
    from perfbench.tracing import Tracer

    min_passes, tail_pct = workloads.WORKLOADS[name]
    if trace:
        min_passes = max(min_passes, 2)  # one untraced pass, then traced ones
    setup_s = None if trace else setup_seconds(name)
    insts = workloads.build(name, ROOT, seed)
    # Untraced runs scale each timing to reference speed (speed.py).  The
    # traced run reports raw wall time, so that no probe lands in a span.
    tracer = Tracer() if trace else None
    clock = None if trace else SpeedClock()

    raw: list[tuple[int, float, float, float]] = []  # (pass, seconds, start, end)
    exec_ok: list[bool] = []
    inst_ok = [True] * len(insts)
    passes, last_pass = 0, 0.0
    loop_start = time.perf_counter()
    with clock or contextlib.nullcontext():
        while passes < min_passes or time.perf_counter() - loop_start + last_pass <= seconds:
            if tracer and passes == 1:
                tracer.install()
            pass_start = time.perf_counter()
            for i, inst in enumerate(insts):
                spent0 = clock.spent if clock else 0.0
                t0 = time.perf_counter()
                try:
                    if tracer and passes > 0:
                        tracer.instance = passes * len(insts) + i
                        outs, ok = tracer.span("instance", workloads.compile_instance, inst)
                    else:
                        outs, ok = workloads.compile_instance(inst)
                    t1 = time.perf_counter()
                    probing = clock.spent - spent0 if clock else 0.0
                    texts = [ss.emit_circuit(c) for c in outs]
                except Exception:
                    traceback.print_exc()
                    inst_ok[i] = False
                    exec_ok.append(False)
                    continue
                raw.append((passes, t1 - t0 - probing, t0, t1))
                if passes == 0:
                    inst.outputs = texts
                elif texts != inst.outputs:
                    print(f"{name}: instance {i} output differs between passes", file=sys.stderr)
                    ok = False
                inst_ok[i] = inst_ok[i] and ok
                exec_ok.append(ok)
            last_pass = time.perf_counter() - pass_start
            passes += 1
    samples = [(p, clock.scale(dt, t0, t1) if clock else dt) for p, dt, t0, t1 in raw]
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Untimed: advantage references and the benchmark's own checks.
    for i, inst in enumerate(insts):
        if not inst_ok[i] or not inst.outputs:
            inst_ok[i] = False
            continue
        texts = list(inst.outputs)
        if not trace:
            ref = workloads.reference(inst)
            if ref is not None:
                inst.reference_cnots = ref.cnot_count
                texts.append(ss.emit_circuit(ref))
        if not workloads.independent_check(inst, texts, seed):
            print(f"{name}: instance {i} ({inst.graph.key}, {inst.kind}) failed the "
                  "independent check", file=sys.stderr)
            inst_ok[i] = False
    per_exec = [ok and inst_ok[k % len(insts)] for k, ok in enumerate(exec_ok)]
    correct = all(inst_ok) and all(per_exec)

    record = run_record(name, seed, insts)
    times = [t for _, t in samples]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        untraced = [t for p, t in samples if p == 0]
        traced = [t for p, t in samples if p > 0]
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = layer_metrics(tracer, passes - 1, overhead)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
    elif correct:
        metrics = {
            "setup_s": (setup_s, "s"),
            "compile_s.p50": (statistics.median(times), "s"),
            "compile_s.tail": (percentile(times, tail_pct), "s"),
            "instances_per_s": (sum(per_exec) / sum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "checked_rate": (sum(per_exec) / len(per_exec), "ratio"),
        }
        counts = workloads.count_metrics(insts)
        metrics["cnots"] = (counts.pop("cnots"), "count")
        metrics["depth"] = (counts.pop("depth"), "count")
        metrics["advantage_geomean"] = (counts.pop("advantage_geomean"), "ratio")
        for key, value in counts.items():
            metrics[key] = (value, "count")
    record.update(passes=passes, timed_instances=len(times), tail_percentile=tail_pct,
                  trace=int(trace), wall_compile_s_p50=statistics.median(r[1] for r in raw))
    if clock:
        record["speed_probe_s_p50"] = statistics.median(clock.values)
    print("record " + json.dumps(record))
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:58s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(per_exec),
        "failed": len(per_exec) - sum(per_exec),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; exits 1 if any of them fails."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines()[:-1]:
            print(line)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "steinersynth" / "__init__.py").is_file():
        print(f"error: no steinersynth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
