"""The CI check of the benchmark's pinned outputs, on synthetic run output.

The output is built from the table's own entries, in the format
`perfbench/run.py` prints: a `record` line per workload and seed, then its
metric lines.  A traced record prints its pinned counters; an untraced one
prints none of them.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"
TABLE = json.loads((WORKFLOWS / "pinned_outputs.json").read_text())
SEEDS = [str(seed) for seed in sorted({e["seed"] for e in TABLE})]


def run_output(runs) -> str:
    """Run output for (entry, traced) pairs, a few unpinned metrics included."""
    lines = []
    for entry, traced in runs:
        w = entry["workload"]
        record = {"workload": w, "seed": entry["seed"], "output_sha256": entry["output_sha256"],
                  "trace": int(traced)}
        lines.append("record " + json.dumps(record))
        metrics = {"graphs.steiner_approx.self_s": 0.237474, **entry["counters"]} if traced else {
            "compile_s.p50": 0.0038, "cnots": 73004}
        lines += [f"{w:14s} {key:58s} {value:>16.6g} count" for key, value in metrics.items()]
    return "\n".join(lines) + "\n"


def check(tmp_path, runs, *seeds):
    out = tmp_path / "bench.out"
    out.write_text(run_output(runs))
    return subprocess.run([sys.executable, str(WORKFLOWS / "check_pinned.py"), str(out), *seeds],
                          capture_output=True, text=True)


def table_runs():
    """Every entry, traced and untraced in turn, each a copy to change."""
    return [(copy.deepcopy(e), k % 2 == 0) for k, e in enumerate(TABLE)]


def test_the_table_pins_each_workload_and_seed_once():
    keys = [(e["workload"], e["seed"]) for e in TABLE]
    assert len(set(keys)) == len(keys)
    assert all(e["counters"] and e["recorded"] for e in TABLE)


def test_the_table_own_entries_pass(tmp_path):
    runs = table_runs()
    assert {traced for _, traced in runs} == {True, False}
    done = check(tmp_path, runs, *SEEDS)
    assert done.returncode == 0, done.stderr
    traced = sum(len(e["counters"]) for e, t in runs if t)
    assert done.stdout == f"pinned outputs unchanged: {len(runs)} digests, {traced} counters\n"
    seed_1 = [(e, t) for e, t in runs if e["seed"] == 1]
    assert check(tmp_path, seed_1, "1").returncode == 0


def where(entry) -> str:
    return f"{entry['workload']} seed {entry['seed']}: "


# Each change returns the start of the one error line it must cause.
def change_digest(runs):
    entry = runs[1][0]
    entry["output_sha256"] = "0" * 64
    return where(entry) + "output_sha256 " + "0" * 64


def change_counter(runs):
    entry = runs[0][0]
    name = next(iter(entry["counters"]))
    entry["counters"][name] += 1
    return where(entry) + f"{name} {float(entry['counters'][name])}, pinned "


def drop_counter(runs):
    entry = runs[0][0]
    name = next(iter(entry["counters"]))
    del entry["counters"][name]
    return where(entry) + f"{name} missing, pinned "


def drop_record(runs):
    return where(runs.pop()[0]) + "no record"


def repeat_record(runs):
    runs.append(runs[1])
    return where(runs[1][0]) + "2 records"


def add_record(runs):
    entry = {**runs[1][0], "seed": 2}
    runs.append((entry, False))
    return where(entry) + "a record with no entry at seeds " + " ".join(SEEDS)


@pytest.mark.parametrize("change", [
    change_digest, change_counter, drop_counter, drop_record, repeat_record, add_record,
])
def test_a_difference_from_the_table_fails(tmp_path, change):
    runs = table_runs()
    error = change(runs)
    done = check(tmp_path, runs, *SEEDS)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert lines[0] == "pinned outputs changed:"
    assert len(lines) == 2 and lines[1].startswith(error), lines
