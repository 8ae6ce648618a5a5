#!/usr/bin/env python
"""Smoke-test parallel sweep scaling: serial vs ``run_sweep(jobs=N)``.

Runs one water workload (large enough to amortize pool startup) over a
4-protocol x 4-page-size grid, serial and then with a worker pool, and

* checks the two grids are cell-for-cell identical (every accounting
  field), and
* asserts the parallel wall-clock speedup clears ``--min-speedup``.

The speedup assertion only makes sense with real cores behind the pool:
when ``os.cpu_count()`` is smaller than 2 (or smaller than ``--jobs``,
which :func:`~repro.simulator.sweep.run_sweep` clamps to the core
count), the script still verifies grid equality but skips the speedup
gate and says so. CI runs this on a 2-core job with ``--jobs 2``.

``--json PATH`` writes the measurements for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import generate  # noqa: E402
from repro.simulator.sweep import run_sweep  # noqa: E402

PROTOCOLS = ("LI", "LU", "LH", "HLRC", "EI", "EU", "EW")
PAGE_SIZES = (512, 1024, 2048, 4096)
#: Big enough that the grid takes seconds serially (pool startup is a
#: few hundred ms; a tiny trace would hide any real scaling).
WORKLOAD = dict(n_procs=8, seed=0, n_molecules=288, timesteps=3)


def result_fields(result) -> dict:
    """Every accounting field of one cell, for exact comparison."""
    return {
        "messages": result.messages,
        "data_bytes": result.data_bytes,
        "control_bytes": result.control_bytes,
        "cold_misses": result.cold_misses,
        "invalid_misses": result.invalid_misses,
        "diffs_fetched": result.diffs_fetched,
        "diff_bytes_fetched": result.diff_bytes_fetched,
        "counters": result.counters,
        "by_kind": result.stats.snapshot(),
    }


def best_wall(fn, trace_blob: bytes, rounds: int) -> float:
    """Best cold wall time over ``rounds``.

    Each round gets a *fresh* trace object (unpickled, outside the timed
    region): a reused stream memoizes its compiled forms, which would
    hand serial rounds a warm start the pool's fresh workers never see.
    """
    best = float("inf")
    for _ in range(rounds):
        trace = pickle.loads(trace_blob)
        start = time.perf_counter()
        fn(trace)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="pool size (default 2)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.2,
        help="required serial/parallel wall-clock ratio (default 1.2)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds per mode (default 3)"
    )
    parser.add_argument("--json", type=Path, help="write measurements to this path")
    args = parser.parse_args(argv)

    trace = generate("water", **WORKLOAD)
    print(
        f"workload: water n_procs={WORKLOAD['n_procs']} "
        f"n_molecules={WORKLOAD['n_molecules']} timesteps={WORKLOAD['timesteps']} "
        f"({len(trace):,} events), grid {len(PROTOCOLS)}x{len(PAGE_SIZES)}"
    )

    serial_sweep = run_sweep(trace, protocols=PROTOCOLS, page_sizes=PAGE_SIZES)
    parallel_sweep = run_sweep(
        trace, protocols=PROTOCOLS, page_sizes=PAGE_SIZES, jobs=args.jobs
    )
    if serial_sweep.grid.keys() != parallel_sweep.grid.keys():
        print("FAIL: serial and parallel sweeps produced different grids")
        return 1
    for key in sorted(serial_sweep.grid):
        if result_fields(serial_sweep.grid[key]) != result_fields(
            parallel_sweep.grid[key]
        ):
            print(f"FAIL: cell {key} differs between serial and parallel sweeps")
            return 1
    print(f"grid equality: all {len(serial_sweep.grid)} cells identical")

    trace_blob = pickle.dumps(trace)
    serial_s = best_wall(
        lambda t: run_sweep(t, protocols=PROTOCOLS, page_sizes=PAGE_SIZES),
        trace_blob,
        args.rounds,
    )
    parallel_s = best_wall(
        lambda t: run_sweep(
            t, protocols=PROTOCOLS, page_sizes=PAGE_SIZES, jobs=args.jobs
        ),
        trace_blob,
        args.rounds,
    )
    speedup = serial_s / parallel_s
    cpus = os.cpu_count() or 1
    print(
        f"serial {serial_s:.2f}s, jobs={args.jobs} {parallel_s:.2f}s "
        f"-> speedup {speedup:.2f}x ({cpus} cores)"
    )

    if args.json:
        args.json.write_text(
            json.dumps(
                {
                    "workload": dict(WORKLOAD, events=len(trace)),
                    "grid_cells": len(serial_sweep.grid),
                    "cpu_count": cpus,
                    "jobs": args.jobs,
                    "serial_s": round(serial_s, 3),
                    "parallel_s": round(parallel_s, 3),
                    "speedup": round(speedup, 2),
                    "min_speedup": args.min_speedup,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {args.json}")

    if cpus < 2 or cpus < args.jobs:
        print(
            f"note: only {cpus} core(s) available; run_sweep clamps the pool, "
            "so the speedup gate is skipped (grid equality still verified)"
        )
        return 0
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x"
        )
        return 1
    print(f"ok: speedup {speedup:.2f}x >= {args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
