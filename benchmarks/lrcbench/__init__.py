"""lrcbench — the repo's end-to-end + per-layer benchmark.

Five named workloads (``sweep_cold``, ``replay_warm``, ``timed_lossy``,
``observed``, ``cli_cold``) drive the simulator through its public
functions only, time it **from outside** with stopwatch spans, and check
every output against committed reference ledgers and against the other
execution paths. ``BENCHMARK.json`` at the repo root names the metrics;
``README.md`` next to this file explains them.

Run ``python -m benchmarks.lrcbench`` (all workloads) or
``python benchmarks/lrcbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (one workload, last stdout line is a JSON result).
"""
