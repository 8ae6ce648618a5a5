#!/usr/bin/env python
"""What the cyclic collector does during one cold figures grid.

CI gate for the collector pause (``repro.common.gcpause``): generates
the five applications at lrcbench's size (16 processors, scale 0.25,
seed 0), saves them as ``.trcb``, then runs one cold pass — fresh load,
serial 7-protocol x 5-page-size ``run_sweep`` per application, every
trace kept alive to the end as the benchmark's pass keeps them — with a
``gc.callbacks`` counter attached. Prints collections, seconds and
objects reclaimed per generation, and exits non-zero unless

* at most one full (generation-2) collection ran during the grid,
* no collection during it, nor a final explicit one, reclaimed anything
  (the plan heap holds no reference cycles; a count here is a cycle that
  came back), and
* ``gc.isenabled()`` afterwards is what it was before, and
* across every kept skeleton, the grouped notice batches hold exactly
  one id object per distinct interval: the store's own
  (``IntervalStore.interval_id``), never a per-receiver copy.

Collection *counts* and id objects are host-independent where
throughput is not, but the collector's heuristics differ by Python
version, so CI runs this on every interpreter of the tier-1 matrix. It
also prints the process's peak RSS (``ru_maxrss``), which depends on the
host and is reported, not checked.

Usage: python scripts/cold_pass_gc.py
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import APPS, generate  # noqa: E402
from repro.config import PAPER_PAGE_SIZES  # noqa: E402
from repro.protocols.registry import all_protocol_names  # noqa: E402
from repro.simulator.sweep import run_sweep  # noqa: E402
from repro.trace import load_trace, save_trace  # noqa: E402

N_PROCS = 16
SCALE = 0.25
MAX_FULL_COLLECTIONS = 1


def _app_params(app: str) -> Dict[str, object]:
    # PTHOR's own scale leaves its event count flat; lrcbench sizes it
    # by time windows instead (benchmarks/lrcbench/spec.py).
    return {"windows": 1} if app == "pthor" else {"scale": SCALE}


class CollectorLog:
    """Per-generation collections, seconds and objects reclaimed."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started
        self.collected[generation] += info["collected"]

    def table(self) -> str:
        lines = ["generation  collections   seconds  reclaimed"]
        for generation in range(3):
            lines.append(
                f"{generation:>10}  {self.collections[generation]:>11}  "
                f"{self.seconds[generation]:>8.3f}  {self.collected[generation]:>9}"
            )
        return "\n".join(lines)


def _id_sharing(kept: List[tuple]) -> Tuple[int, int]:
    """(distinct id objects, distinct intervals) named by the grouped
    notice batches of every skeleton the kept traces memoize. Each
    skeleton has its own store, so an interval is (skeleton, id)."""
    objects = set()
    intervals = set()
    for trace, _sweep in kept:
        for compiled in trace._compiled.values():
            for plan in compiled._batch_plans.values():
                skeleton = plan._skeleton
                if skeleton is None:
                    continue
                for record in skeleton.records:
                    if len(record) == 6:  # acquire
                        batches = (record[4],)
                    elif len(record) == 3 and record[2] is not None:
                        batches = tuple(grouped for _n, grouped, _vc in record[2])
                    else:
                        continue
                    for grouped in batches:
                        for _page, interval_ids in grouped:
                            for interval_id in interval_ids:
                                objects.add(id(interval_id))
                                intervals.add((id(skeleton), interval_id))
    return len(objects), len(intervals)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main() -> int:
    protocols = all_protocol_names()
    page_sizes = list(PAPER_PAGE_SIZES)
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for app in APPS:
            paths[app] = os.path.join(work, f"{app}.trcb")
            save_trace(generate(app, n_procs=N_PROCS, seed=0, **_app_params(app)), paths[app])
        gc.collect()
        was_enabled = gc.isenabled()
        log = CollectorLog()
        gc.callbacks.append(log)
        t0 = time.perf_counter()
        try:
            kept: List[object] = []
            events = 0
            for app, path in paths.items():
                trace = load_trace(path)
                sweep = run_sweep(trace, protocols=protocols, page_sizes=page_sizes)
                events += len(trace) * len(sweep.grid)
                kept.append((trace, sweep))
        finally:
            gc.callbacks.remove(log)
        elapsed = time.perf_counter() - t0
        enabled_after = gc.isenabled()
        unreachable = gc.collect()
        id_objects, intervals = _id_sharing(kept)
        del kept

    cells = len(APPS) * len(protocols) * len(page_sizes)
    print(f"python {sys.version.split()[0]}: one cold pass, {cells} cells, "
          f"{events} cell-events in {elapsed:.2f} s (host time)")
    print(log.table())
    print(f"final gc.collect(): {unreachable} unreachable objects")
    print(f"notice batches: {id_objects} id objects for {intervals} intervals")
    print(f"peak RSS (ru_maxrss): {_peak_rss_mb():.1f} MB")

    failures = []
    if log.collections[2] > MAX_FULL_COLLECTIONS:
        failures.append(
            f"{log.collections[2]} full collections during the grid "
            f"(at most {MAX_FULL_COLLECTIONS})"
        )
    if sum(log.collected) or unreachable:
        failures.append(
            f"the collector reclaimed {sum(log.collected)} objects during the grid and "
            f"{unreachable} after it: a reference cycle is back"
        )
    if enabled_after != was_enabled:
        failures.append(f"gc.isenabled() went {was_enabled} -> {enabled_after}")
    if id_objects != intervals:
        failures.append(
            f"notice batches hold {id_objects} id objects for {intervals} intervals: "
            f"an interval id is copied instead of shared"
        )
    for failure in failures:
        print(f"cold_pass_gc: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
