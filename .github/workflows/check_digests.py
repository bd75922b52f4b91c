"""Compare the output digests of `perfbench/run.py` runs with the table.

Usage: python3 .github/workflows/check_digests.py BENCH_OUT SEED [SEED ...]

BENCH_OUT holds the output of one or more untraced `perfbench/run.py`
runs.  Their `record` lines must give exactly the `output_sha256` that
output_digests.json, beside this script, lists for each workload at each
SEED, with no entry missing and no other record.  Exits non-zero on any
difference.
"""

import json
import sys
from pathlib import Path


def main(bench_out: str, *seeds: str) -> None:
    table = json.loads(Path(__file__).with_name("output_digests.json").read_text())
    checked = {int(seed) for seed in seeds}
    want = {(e["workload"], e["seed"]): e["output_sha256"] for e in table if e["seed"] in checked}
    with open(bench_out) as f:
        records = [json.loads(ln.split(" ", 1)[1]) for ln in f if ln.startswith("record ")]
    got = {(r["workload"], r["seed"]): r["output_sha256"] for r in records}
    if got != want:
        sys.exit(f"output_sha256 changed: expected {want}, got {got}")
    print("output digests unchanged")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
