"""The repository benchmark: three seeded workloads driven through the
public ``Pipeline`` / engine API, with answers checked against an oracle
and per-layer timings taken from outside the library.

Run ``python3 perfbench/run.py`` from the repository root; see
``run.py`` for the command line and ``BENCHMARK.json`` for the metrics.
"""
