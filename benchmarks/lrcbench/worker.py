"""One workload in its own interpreter, driven over a pipe.

The orchestrator (:mod:`benchmarks.lrcbench.cli`) starts one worker per
workload with ``PYTHONHASHSEED=0`` and ``REPRO_TRACE_CACHE`` unset, and
then tells it, one line at a time on stdin, which pass to run next:
``pass`` (stopwatch off — the end-to-end numbers), ``traced`` (stopwatch
on — the per-layer numbers) or ``finish`` (post-measurement checks, the
per-layer summary, exit). Every reply is one JSON line on stdout. The
orchestrator decides order and duration, so it can alternate workloads
between passes while each keeps its warmed state.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from benchmarks.lrcbench import spec
from benchmarks.lrcbench.stopwatch import Stopwatch
from benchmarks.lrcbench.workloads import WORKLOAD_CLASSES, Outcome


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def load_reference(path: str, seed: int) -> Optional[Dict[str, Dict[str, str]]]:
    """The committed ledgers, if they were generated from this seed and scale."""
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["seed"] != seed or reference["scale"] != spec.SCALE:
        return None
    return reference


def _medians(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    names = {name for d in dicts for name in d}
    return {name: statistics.median(d.get(name, 0.0) for d in dicts) for name in names}


class Worker:
    def __init__(self, workload: str, seed: int, setup_reps: int, reference_path: str):
        self.workload = WORKLOAD_CLASSES[workload](seed, load_reference(reference_path, seed))
        self.setup_reps = setup_reps
        self.sw = Stopwatch(enabled=True)
        self.off = Stopwatch(enabled=False)
        self.passes = 0
        self.walls: Dict[str, List[float]] = {"pass": [], "traced": []}
        self.traced_totals: List[Dict[str, float]] = []
        self.last_untraced: Optional[Outcome] = None
        self.cells: Dict[str, List[str]] = {}

    def scope(self, label: str) -> str:
        return f"{self.workload.name}/{label}"

    def setup(self) -> Dict[str, object]:
        seconds = []
        for _ in range(self.setup_reps):
            # Only the last set-up's spans are kept: it is the state the
            # passes run against.
            self.sw.clear()
            self.sw.scope = self.scope("setup")
            gc.collect()
            t0 = time.perf_counter()
            with self.sw.span("setup"):
                self.workload.setup(self.sw)
            seconds.append(time.perf_counter() - t0)
        return {"setup_s": seconds, "apps_events": self.workload.setup_counts["apps.events"]}

    def run_pass(self, kind: str) -> Dict[str, object]:
        traced = kind == "traced"
        sw = self.sw if traced else self.off
        scope = sw.scope = self.scope(f"{kind}{self.passes}")
        self.passes += 1
        self.workload.release()
        gc.collect()
        t0 = time.perf_counter()
        with sw.span("pass"):
            raw = self.workload.drive(sw)
        wall = time.perf_counter() - t0
        outcome = self.workload.judge(raw)
        self.walls[kind].append(wall)
        if traced:
            self.traced_totals.append({**outcome.counts, **sw.scope_totals(scope)})
        else:
            self.last_untraced = outcome
        self.cells.update({key: list(pair) for key, pair in outcome.cells.items()})
        return {
            "wall_s": wall,
            "events": outcome.events,
            "attempted": outcome.attempted,
            "failures": outcome.failures,
        }

    def finish(self) -> Dict[str, object]:
        self.sw.scope = self.scope("finish")
        outcome = self.workload.finish(self.sw)
        self.cells.update({key: list(pair) for key, pair in outcome.cells.items()})
        reply: Dict[str, object] = {
            "attempted": outcome.attempted,
            "failures": outcome.failures,
            "cells": self.cells,
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.traced_totals:
            reply["layers"] = self.layers(outcome)
            reply["spans"] = self.sw.to_rows()
        self.workload.cleanup()
        return reply

    def layers(self, finish: Outcome) -> Dict[str, float]:
        """Every per-layer number this run can state, by metric name.

        Seconds are span self times over the traced pass (median over
        the traced passes); a layer the pass never enters reports what
        it cost in the last set-up or in the final checks instead.
        """
        traced = _medians(self.traced_totals)
        layers = {
            **self.sw.scope_totals(self.scope("setup")),
            **self.workload.setup_counts,
            **self.sw.scope_totals(self.scope("finish")),
            **finish.counts,
            **traced,
        }
        if self.last_untraced is not None:
            # The staged pass looks plans up itself, which adds hits;
            # the cache counters of record are the untraced pass's.
            layers.update(
                {k: v for k, v in self.last_untraced.counts.items() if k.startswith("hb.")}
            )
        layers.update(self.workload.layer_extras(traced, finish.counts))
        instructions = layers.get("trace.run_instructions", 0)
        layers["trace.events_per_run"] = (
            layers.get("trace.run_events", 0) / instructions if instructions else 0.0
        )
        declared = spec.declared_metrics("per_layer")
        # Per pass, then the median: medians of single layers need not
        # add up to the median pass.
        layers["trace_coverage_frac"] = statistics.median(
            sum(
                seconds for name, seconds in totals.items()
                if name in declared and declared[name]["unit"] == "s"
            ) / wall
            for totals, wall in zip(self.traced_totals, self.walls["traced"])
        )
        layers.update(self.trace_overhead())
        return layers

    def trace_overhead(self) -> Dict[str, float]:
        """Traced over untraced wall time, from passes that ran back to back.

        The orchestrator schedules every traced pass next to an untraced
        one and flips which goes first, so the k-th of each kind are
        neighbours. Beside the median ratio go its range over the pairs
        and the untraced passes' own quartile spread: an overhead
        inside that spread is noise, whatever its sign.
        """
        pairs = [t / u - 1.0 for t, u in zip(self.walls["traced"], self.walls["pass"])]
        if not pairs:
            return {}
        overhead = {
            "trace_overhead_frac": statistics.median(pairs),
            "trace_overhead_frac.min": min(pairs),
            "trace_overhead_frac.max": max(pairs),
            "trace_overhead.pairs": len(pairs),
        }
        untraced = self.walls["pass"]
        if len(untraced) >= 2:
            q1, _q2, q3 = statistics.quantiles(untraced, n=4)
            overhead["trace_overhead.pass_spread"] = (q3 - q1) / statistics.median(untraced)
        return overhead


def serve(workload: str, seed: int, setup_reps: int, reference_path: str) -> int:
    # stdout is the reply channel; anything the program under test
    # prints must not land on it.
    channel = sys.stdout
    sys.stdout = sys.stderr

    def reply(message: Dict[str, object]) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    worker = Worker(workload, seed, setup_reps, reference_path)
    try:
        reply(worker.setup())
        for line in sys.stdin:
            command = line.strip()
            if command in ("pass", "traced"):
                reply(worker.run_pass(command))
            elif command == "finish":
                reply(worker.finish())
                return 0
            else:
                raise ValueError(f"unknown worker command {command!r}")
    finally:
        worker.workload.cleanup()
    return 1
