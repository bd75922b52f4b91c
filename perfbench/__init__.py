"""Benchmark for steinersynth: end-to-end compile time and CNOT counts, with
independent output checks and a traced per-module run.  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
