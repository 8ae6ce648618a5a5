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
  (``IntervalStore.interval_id``), never a per-receiver copy, and
* the grid keeps only plan state a later cell reads: no fetch planner
  has a run-plan memo, each planner's memoized plans hold one
  ``by_server`` object per distinct server list, and every compiled
  access op is ``(code, proc, page, words)`` or ``(code, proc,
  chunks)`` with one op per event (no ``seq`` field), and
* each builder of per-page-size state handed out one object per
  distinct value: each compiled trace one op object per distinct op,
  each run program one touch object per (proc, page), and each skeleton
  one tuple per distinct ``(page, ids)`` notice pair across its batches.

Collection *counts*, id objects and retained objects are
host-independent where throughput is not, but the collector's
heuristics differ by Python version, so CI runs this on every
interpreter of the tier-1 matrix. It also prints the process's peak RSS
(``ru_maxrss``), which depends on the host and is reported, not checked,
beside the exact counts of those objects (op objects against ops, touch
objects against touches, pair objects against pairs) and the fetch
planner's traffic: page-plan calls (``FetchPlanner.plan``,
including those ``plan_run`` makes) with their memo hits, and run-plan
calls (``FetchPlanner.plan_run``) with how many repeat a run shape the
same planner saw before.

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
from repro.hb.index import FetchPlanner  # noqa: E402
from repro.protocols.registry import all_protocol_names  # noqa: E402
from repro.simulator.sweep import run_sweep  # noqa: E402
from repro.trace import load_trace, save_trace  # noqa: E402
from repro.trace.precompile import OP_READ, OP_READ_N, OP_WRITE, OP_WRITE_N  # noqa: E402
from repro.trace.runs import R_TOUCH  # noqa: E402

N_PROCS = 16
SCALE = 0.25
MAX_FULL_COLLECTIONS = 1
#: The width of each compiled access op: no trailing seq.
ACCESS_WIDTHS = {OP_READ: 4, OP_WRITE: 4, OP_READ_N: 3, OP_WRITE_N: 3}


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


def _notice_pairs(skeleton) -> List[tuple]:
    """Every ``(page, ids)`` pair of every grouped batch ``skeleton`` keeps."""
    pairs: List[tuple] = []
    for record in skeleton.records:
        if len(record) == 6:  # acquire
            pairs += record[4]
        elif len(record) == 3 and record[2] is not None:  # completing arrival
            for _n, grouped, _vc in record[2]:
                pairs += grouped
    return pairs


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
                for _page, interval_ids in _notice_pairs(skeleton):
                    for interval_id in interval_ids:
                        objects.add(id(interval_id))
                        intervals.add((id(skeleton), interval_id))
    return len(objects), len(intervals)


class PlannerTraffic:
    """Counts the fetch planner's calls while installed on its class."""

    def __init__(self) -> None:
        self.page_calls = self.page_hits = 0
        self.run_calls = self.run_repeats = 0
        self._shapes: set = set()
        self._plan = FetchPlanner.plan
        self._plan_run = FetchPlanner.plan_run

    def __enter__(self) -> "PlannerTraffic":
        plan, plan_run = self._plan, self._plan_run

        def counted_plan(planner, page, interval_ids):
            self.page_calls += 1
            self.page_hits += (page, interval_ids) in planner._memo
            return plan(planner, page, interval_ids)

        def counted_plan_run(planner, items):
            self.run_calls += 1
            shape = hash((id(planner), tuple(items)))
            self.run_repeats += shape in self._shapes
            self._shapes.add(shape)
            return plan_run(planner, items)

        FetchPlanner.plan = counted_plan
        FetchPlanner.plan_run = counted_plan_run
        return self

    def __exit__(self, *exc) -> None:
        FetchPlanner.plan = self._plan
        FetchPlanner.plan_run = self._plan_run
        self._shapes.clear()

    def lines(self) -> List[str]:
        return [
            f"page-plan calls: {self.page_calls} ({self.page_hits} memo hits, "
            f"{_percent(self.page_hits, self.page_calls)})",
            f"run-plan calls: {self.run_calls} ({self.run_repeats} repeat a shape, "
            f"{_percent(self.run_repeats, self.run_calls)})",
        ]


def _percent(part: int, whole: int) -> str:
    return f"{100 * part / whole:.1f} %" if whole else "n/a"


def _retained(kept: List[tuple]) -> Dict[str, int]:
    """Plan state the kept traces hold: planners with a run-plan memo,
    ``by_server`` objects and distinct server lists across the memoized
    plans (each planner on its own), and compiled ops that are not one
    per event or whose access width is not :data:`ACCESS_WIDTHS`'s."""
    keys = ("planners", "run_memos", "server_objects", "server_lists", "wide_ops")
    counts = dict.fromkeys(keys, 0)
    for trace, _sweep in kept:
        for compiled in trace._compiled.values():
            counts["wide_ops"] += abs(len(compiled.ops) - len(trace))
            for op in compiled.ops:
                width = ACCESS_WIDTHS.get(op[0])
                counts["wide_ops"] += width is not None and len(op) != width
            for plan in compiled._batch_plans.values():
                for planner in plan._planners.values():
                    counts["planners"] += 1
                    counts["run_memos"] += hasattr(planner, "_run_memo")
                    lists = [fetch_plan.by_server for fetch_plan in planner._memo.values()]
                    counts["server_objects"] += len({id(servers) for servers in lists})
                    counts["server_lists"] += len(set(lists))
    return counts


def _sharing(kept: List[tuple]) -> Dict[str, Tuple[int, int, int]]:
    """(objects, distinct values, total) of the compiled ops, run-program
    touches and skeleton notice pairs the kept traces hold, each summed
    over the builds that made them (a compiled trace, a plan)."""
    found = {"ops": [], "touches": [], "pairs": []}
    for trace, _sweep in kept:
        for compiled in trace._compiled.values():
            found["ops"].append(compiled.ops)
            for plan in compiled._batch_plans.values():
                if plan._runs is not None:
                    found["touches"].append([run for run in plan._runs[0] if run[0] == R_TOUCH])
                if plan._skeleton is not None:
                    found["pairs"].append(_notice_pairs(plan._skeleton))
    return {
        kind: (
            sum(len({id(value) for value in values}) for values in builds),
            sum(len(set(values)) for values in builds),
            sum(len(values) for values in builds),
        )
        for kind, builds in found.items()
    }


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
            with PlannerTraffic() as traffic:
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
        retained = _retained(kept)
        sharing = _sharing(kept)
        del kept

    cells = len(APPS) * len(protocols) * len(page_sizes)
    print(f"python {sys.version.split()[0]}: one cold pass, {cells} cells, "
          f"{events} cell-events in {elapsed:.2f} s (host time)")
    print(log.table())
    print(f"final gc.collect(): {unreachable} unreachable objects")
    print(f"notice batches: {id_objects} id objects for {intervals} intervals")
    print(
        f"fetch planners: {retained['planners']}, {retained['run_memos']} with a run memo; "
        f"{retained['server_objects']} by_server objects for "
        f"{retained['server_lists']} distinct server lists"
    )
    print(f"compiled ops off one-per-event or the access widths: {retained['wide_ops']}")
    print(f"peak RSS (ru_maxrss): {_peak_rss_mb():.1f} MB")
    for kind, (objects, values, total) in sharing.items():
        print(f"{kind}: {objects} objects for {total} {kind} ({values} distinct)")
    for line in traffic.lines():
        print(line)

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
    if retained["run_memos"]:
        failures.append(
            f"{retained['run_memos']} fetch planners keep a run-plan memo: "
            f"run plans are merged per call, not kept"
        )
    if retained["server_objects"] != retained["server_lists"]:
        failures.append(
            f"memoized plans hold {retained['server_objects']} by_server objects for "
            f"{retained['server_lists']} distinct server lists: an equal list is copied"
        )
    if retained["wide_ops"]:
        failures.append(
            f"{retained['wide_ops']} compiled ops are not one per event or carry a "
            f"field beyond their access width"
        )
    for kind, (objects, values, _total) in sharing.items():
        if objects != values:
            failures.append(
                f"{objects} {kind} objects for {values} distinct {kind}: an equal value "
                f"is built twice"
            )
    for failure in failures:
        print(f"cold_pass_gc: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
