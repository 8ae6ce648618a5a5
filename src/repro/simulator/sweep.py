"""Protocol x page-size sweeps — the shape of every evaluation figure.

The paper plots, per application, total messages (odd-numbered figures)
and total data (even-numbered) for the four protocols at page sizes 512,
1024, 2048, 4096 and 8192 bytes. :func:`run_sweep` reruns one trace over
that grid and :class:`SweepResult` exposes the series.

Sweeps are embarrassingly parallel: every (protocol, page size) cell is
an independent replay of the same trace. ``run_sweep(..., jobs=N)`` fans
the grid out over a :class:`~concurrent.futures.ProcessPoolExecutor`;
the trace and base config ship to each worker once (via the pool
initializer, not per work unit) and results merge deterministically —
the grid a parallel sweep produces is cell-for-cell identical to a
serial one, which the equivalence tests assert. Both paths amortize per
page size: all protocols at one page size share one
:class:`~repro.trace.precompile.CompiledTrace` (through the stream's
memo) and its batch plan — skeleton, run program and fetch-planner
memo. A parallel sweep with at least as many page sizes as workers
hands out one page size's protocol row per task, so each page size is
compiled and planned in one process; with fewer page sizes than
workers it hands out single cells, so no worker sits idle.

With ``metrics=True`` every cell runs under its own
:class:`~repro.obs.probe.RecordingProbe` (metrics only, no event sinks);
snapshots are plain dicts, so they cross the process-pool boundary
unchanged and :meth:`SweepResult.merged_metrics` can fold any subset of
the grid after the fact.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.gcpause import gc_paused
from repro.hb.skeleton import plan_stats
from repro.obs.metrics import merge_metrics
from repro.obs.probe import RecordingProbe
from repro.protocols.registry import protocol_names
from repro.config import PAPER_PAGE_SIZES, SimConfig
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.trace.stream import TraceStream

logger = logging.getLogger(__name__)


@dataclass
class SweepResult:
    """Results of one trace over a (protocol, page size) grid."""

    app: str
    protocols: List[str]
    page_sizes: List[int]
    grid: Dict[Tuple[str, int], SimulationResult] = field(default_factory=dict)

    def result(self, protocol: str, page_size: int) -> SimulationResult:
        return self.grid[(protocol, page_size)]

    def message_series(self, protocol: str) -> List[int]:
        """Total messages across page sizes (one figure line)."""
        return [self.grid[(protocol, s)].messages for s in self.page_sizes]

    def data_series(self, protocol: str) -> List[float]:
        """Total data kbytes across page sizes (one figure line)."""
        return [self.grid[(protocol, s)].data_kbytes for s in self.page_sizes]

    def messages_table(self) -> Dict[str, List[int]]:
        return {p: self.message_series(p) for p in self.protocols}

    def data_table(self) -> Dict[str, List[float]]:
        return {p: self.data_series(p) for p in self.protocols}

    def merged_metrics(self, protocol: Optional[str] = None) -> Dict[str, object]:
        """Fold the grid's per-cell metrics snapshots into one.

        ``protocol`` restricts the fold to one protocol's row of the
        grid. Cells run without metrics contribute nothing.
        """
        cells = (
            result
            for (proto, _size), result in sorted(self.grid.items())
            if protocol is None or proto == protocol
        )
        return merge_metrics(result.metrics for result in cells)

    def manifest(self) -> Optional[Dict[str, object]]:
        """The shared provenance record of the sweep's cells.

        Every cell replays the same trace, so any cell's manifest (minus
        the per-cell config/timings) describes the sweep; this returns
        the first cell's manifest annotated with the grid shape.
        """
        for protocol in self.protocols:
            for page_size in self.page_sizes:
                result = self.grid.get((protocol, page_size))
                if result is not None and result.manifest is not None:
                    manifest = dict(result.manifest)
                    manifest.pop("timings_s", None)
                    manifest["sweep_protocols"] = list(self.protocols)
                    manifest["sweep_page_sizes"] = list(self.page_sizes)
                    return manifest
        return None

    def execution_paths(self) -> Dict[Tuple[str, Optional[str]], int]:
        """Cells per ``(execution_path, decline_reason)``, in grid order
        (the ``sweep`` footer; see :func:`~repro.protocols.base.certify_replay`)."""
        counts: Dict[Tuple[str, Optional[str]], int] = {}
        for result in self.grid.values():
            manifest = result.manifest or {}
            key = (manifest.get("execution_path"), manifest.get("decline_reason"))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def rollup_table(self) -> Dict[str, Dict[int, Dict[str, float]]]:
        """Per-cell critical-path rollups (``run_sweep(spans=True)``).

        ``{protocol: {page_size: {crit_path_len, serial_frac,
        barrier_imbalance}}}`` — cells run without span tracing are
        omitted.
        """
        table: Dict[str, Dict[int, Dict[str, float]]] = {}
        for protocol in self.protocols:
            row = {
                size: self.grid[(protocol, size)].spans
                for size in self.page_sizes
                if self.grid[(protocol, size)].spans is not None
            }
            if row:
                table[protocol] = row  # type: ignore[assignment]
        return table

    def format_shape_table(self) -> str:
        """Text rendering of the critical-path shape rollups."""
        rollups = self.rollup_table()
        header = f"{self.app} — critical-path shape by page size"
        lines = [header, "-" * len(header)]
        if not rollups:
            lines.append("(no span rollups; run with spans=True)")
            return "\n".join(lines)
        metrics = [
            ("crit_path_len", "crit_path_len (ms)", 1e3, "{:>12.3f}"),
            ("serial_frac", "serial_frac", 1.0, "{:>12.3f}"),
            ("barrier_imbalance", "barrier_imbalance", 1.0, "{:>12.3f}"),
        ]
        if any("completion_s" in cell for row in rollups.values() for cell in row.values()):
            metrics += [
                ("completion_s", "completion (ms)", 1e3, "{:>12.3f}"),
                ("retries", "retries", 1.0, "{:>12.0f}"),
            ]
        for key, label, scale, fmt in metrics:
            lines.append(label)
            lines.append("proto " + "".join(f"{s:>12}" for s in self.page_sizes))
            for protocol, row in rollups.items():
                cells = "".join(
                    fmt.format(row[s][key] * scale)
                    if s in row and key in row[s]
                    else f"{'-':>12}"
                    for s in self.page_sizes
                )
                lines.append(f"{protocol:<6}{cells}")
            lines.append("")
        return "\n".join(lines).rstrip()

    def format_table(self, metric: str = "messages") -> str:
        """A text rendering of one figure (rows: protocols, cols: page sizes)."""
        header = f"{self.app} — {metric} by page size"
        lines = [header, "-" * len(header)]
        lines.append("proto " + "".join(f"{s:>12}" for s in self.page_sizes))
        for protocol in self.protocols:
            if metric == "messages":
                cells = "".join(f"{v:>12}" for v in self.message_series(protocol))
            else:
                cells = "".join(f"{v:>12.1f}" for v in self.data_series(protocol))
            lines.append(f"{protocol:<6}{cells}")
        return "\n".join(lines)


# -- parallel executor machinery -------------------------------------------
#
# Workers receive the trace once, through the pool initializer — by
# default as attached views over the parent's shared-memory segment
# (zero copies, see :mod:`repro.simulator.shm`), or pickled whole if the
# shared path is unavailable. Each work unit is then just a
# (protocol, page_size) pair, handed out a page size's row at a time when
# there are at least as many page sizes as workers: the protocols then
# share that page size's compiled trace and batch plan inside one worker.

_worker_trace: Optional[TraceStream] = None
_worker_config: Optional[SimConfig] = None
_worker_metrics: bool = False
_worker_spans: bool = False
_worker_shm: Optional[shared_memory.SharedMemory] = None


def _init_sweep_worker(
    trace: TraceStream, config: SimConfig, metrics: bool, spans: bool = False
) -> None:
    global _worker_trace, _worker_config, _worker_metrics, _worker_spans
    _worker_trace = trace
    _worker_config = config
    _worker_metrics = metrics
    _worker_spans = spans


def _init_sweep_worker_shm(
    descriptor, config: SimConfig, metrics: bool, spans: bool = False
) -> None:
    # The handle must outlive the stream (its columns borrow the
    # buffer), so it parks in a module global for the worker's lifetime;
    # worker teardown unmaps it implicitly. Workers never unlink — the
    # segment belongs to the parent.
    from repro.simulator.shm import attach_trace

    global _worker_trace, _worker_config, _worker_metrics, _worker_spans, _worker_shm
    _worker_shm, _worker_trace = attach_trace(descriptor)
    _worker_config = config
    _worker_metrics = metrics
    _worker_spans = spans


def _cell_probe(metrics: bool, spans: bool):
    """The probe a sweep cell runs under (span tracing implies metrics)."""
    if spans:
        from repro.obs.spans import SpanProbe

        return SpanProbe()
    if metrics:
        return RecordingProbe()
    return None


def _attach_rollups(result: SimulationResult, probe, compiled, n_procs: int) -> None:
    """Reduce a span-traced cell to its shape rollups, in-process.

    The raw record stream is large and per-worker; only the small
    rollup dict crosses the pool boundary on ``result.spans``. Timed
    cells (config carried a link model) contribute two extra rollup
    columns — simulated ``completion_s`` and the ``retries`` count —
    so a timed sweep's CSV carries the completion grid alongside the
    shape grid.
    """
    from repro.analysis.critical_path import analyze_critical_path
    from repro.obs.spans import SpanCosts, timeline_from_records

    link = getattr(probe, "link_model", None)
    timeline = timeline_from_records(
        probe.records,
        compiled,
        n_procs,
        costs=SpanCosts.from_link(link) if link is not None else None,
        app=result.app,
        protocol=result.protocol,
        delays=getattr(probe, "link_delays", None),
    )
    result.spans = analyze_critical_path(timeline).rollups()
    if result.timing is not None:
        result.spans["completion_s"] = result.timing["completion_s"]
        result.spans["retries"] = float(result.timing["retries"])


def _run_cell(
    trace: TraceStream, config: SimConfig, protocol: str, metrics: bool, spans: bool
) -> SimulationResult:
    """One grid cell, under the probe ``metrics`` / ``spans`` ask for.

    The probe is this function's to close: its snapshot and rollups are
    on the result by then, and a closed probe is freed by reference
    counting (see :meth:`RecordingProbe.close`) instead of waiting, with
    its record stream, for a full collection.
    """
    compiled = trace.compiled(config.page_size)
    probe = _cell_probe(metrics, spans)
    try:
        result = Engine(trace, config, protocol, compiled=compiled, probe=probe).run()
        if spans:
            _attach_rollups(result, probe, compiled, config.n_procs)
    finally:
        if probe is not None:
            probe.close()
    return result


@gc_paused()
def _run_sweep_cell(cell: Tuple[str, int]) -> Tuple[str, int, SimulationResult, Dict[str, int]]:
    protocol, page_size = cell
    assert _worker_trace is not None and _worker_config is not None
    # Plan/tape cache traffic happens inside this worker process; ship
    # the per-cell delta back so the parent can report the sweep-wide
    # hit rate (the counters themselves are process-local).
    before = plan_stats()
    result = _run_cell(
        _worker_trace,
        _worker_config.with_page_size(page_size),
        protocol,
        _worker_metrics,
        _worker_spans,
    )
    after = plan_stats()
    return protocol, page_size, result, {k: after[k] - before[k] for k in after}


def _fill_grid(
    sweep: SweepResult, collected: Dict[Tuple[str, int], SimulationResult]
) -> SweepResult:
    """Deterministic merge: ``sweep`` with the ``collected`` cells in
    the serial path's protocol-major order, whatever order they
    completed in."""
    for protocol in sweep.protocols:
        for page_size in sweep.page_sizes:
            if (protocol, page_size) in collected:
                sweep.grid[(protocol, page_size)] = collected[(protocol, page_size)]
    return sweep


def _log_plan_cache(stats: Dict[str, int]) -> None:
    """One line on how well BatchPlan/tape construction amortized.

    Every tape cell needs a plan; within a worker it is memoized on the
    compiled trace, so a sweep should build once per page size and hit
    everywhere else. A hit rate near zero here means cells are
    rebuilding per-cell state that should be shared. Priced tapes are
    the eager policies', one per cost key.
    """
    kinds = ("plan", "priced_tape")
    builds = sum(stats[kind + "_builds"] for kind in kinds)
    hits = sum(stats[kind + "_hits"] for kind in kinds)
    total = builds + hits
    if not total:
        return
    logger.info(
        "sweep plan cache: %d lookups, %d builds (%d plan / %d priced tape), "
        "%.0f%% hit rate",
        total,
        builds,
        *(stats[kind + "_builds"] for kind in kinds),
        100.0 * hits / total,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one (it reflects ``taskset`` and cgroup cpusets, which
    ``os.cpu_count()`` ignores), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


#: (jobs, cpus) pairs already logged by the clamp below — bench loops
#: call run_sweep with the same oversubscribed jobs dozens of times per
#: process, and one notice per distinct request is plenty.
_clamp_logged: set = set()


@gc_paused()
def run_sweep(
    trace: TraceStream,
    protocols: Optional[Sequence[str]] = None,
    page_sizes: Optional[Sequence[int]] = None,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    metrics: bool = False,
    spans: bool = False,
) -> SweepResult:
    """Run ``trace`` across the protocol and page-size grid.

    ``jobs=N`` with ``N > 1`` distributes the grid over ``N`` worker
    processes; ``jobs=None`` (or 1) runs serially in-process. Both paths
    produce identical grids. ``metrics=True`` attaches a per-cell
    :class:`~repro.obs.probe.RecordingProbe`, so every cell's result
    carries a metrics snapshot (and parallel workers' snapshots travel
    back as plain dicts — see :meth:`SweepResult.merged_metrics`).
    ``spans=True`` (implies metrics) span-traces every cell and reduces
    each — inside the worker, the record stream never crosses the pool
    boundary — to its critical-path shape rollups on ``result.spans``
    (see :meth:`SweepResult.rollup_table`).

    The grid (and each worker cell) runs with the cyclic collector
    paused and restored on exit (:func:`~repro.common.gcpause.gc_paused`):
    compile, plan build, replay and result assembly make no reference
    cycles, so every traversal of the plan heap found nothing.

    A worker that dies breaks the pool: the sweep then raises a
    ``BrokenProcessPool`` naming every cell without a result (as
    ``protocol/page_size``), whose ``partial`` is a :class:`SweepResult`
    of the cells that did come back.
    """
    protocols = list(protocols) if protocols else protocol_names()
    page_sizes = list(page_sizes) if page_sizes else list(PAPER_PAGE_SIZES)
    base = config or SimConfig(n_procs=trace.n_procs)
    sweep = SweepResult(app=trace.meta.app, protocols=protocols, page_sizes=page_sizes)
    if jobs is not None and jobs > 1:
        # More workers than cores only adds scheduling churn (each cell
        # is pure CPU), so oversubscribed requests are clamped.
        cpus = _usable_cpus()
        if jobs > cpus:
            if (jobs, cpus) not in _clamp_logged:
                _clamp_logged.add((jobs, cpus))
                logger.info(
                    "sweep: clamping jobs=%d to effective cpu_count=%d "
                    "(logged once per process)",
                    jobs,
                    cpus,
                )
            jobs = cpus
    logger.info(
        "sweep %s: %d protocols x %d page sizes%s%s",
        trace.meta.app,
        len(protocols),
        len(page_sizes),
        f", {jobs} workers" if jobs and jobs > 1 else "",
        ", spans on" if spans else (", metrics on" if metrics else ""),
    )
    if jobs is not None and jobs > 1:
        # Page-size-major order. With at least one page size per worker,
        # a task is one page size's protocol row (chunksize), so a page
        # size is compiled and planned in one process only; with fewer,
        # cells go out one by one so every worker has work.
        cells = [(p, s) for s in page_sizes for p in protocols]
        chunksize = len(protocols) if len(page_sizes) >= jobs else 1
        collected: Dict[Tuple[str, int], SimulationResult] = {}
        cache_stats = dict.fromkeys(plan_stats(), 0)
        shared = None
        try:
            from repro.simulator.shm import SharedTraceColumns

            shared = SharedTraceColumns(trace)
            initializer = _init_sweep_worker_shm
            initargs: tuple = (shared.descriptor, base, metrics, spans)
        except Exception:
            # Shared memory can be unavailable (tiny /dev/shm, exotic
            # trace types without columns); the sweep still runs, each
            # worker just receives a pickled copy of the trace.
            logger.warning(
                "sweep: shared-memory trace setup failed; "
                "falling back to per-worker pickling",
                exc_info=True,
            )
            shared = None
            initializer = _init_sweep_worker
            initargs = (trace, base, metrics, spans)
        try:
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                for protocol, page_size, result, delta in pool.map(
                    _run_sweep_cell, cells, chunksize=chunksize
                ):
                    collected[(protocol, page_size)] = result
                    for key, value in delta.items():
                        cache_stats[key] += value
        except BrokenProcessPool as exc:
            missing = [f"{p}/{s}" for p, s in cells if (p, s) not in collected]
            broken = BrokenProcessPool(
                f"a sweep worker died; cells without a result: {', '.join(missing)}"
            )
            broken.partial = _fill_grid(sweep, collected)
            raise broken from exc
        finally:
            # Unconditional teardown — also on worker crashes — so no
            # run leaves a segment behind for the resource tracker to
            # reclaim (and warn about) at interpreter exit.
            if shared is not None:
                shared.close()
                shared.unlink()
        _log_plan_cache(cache_stats)
        return _fill_grid(sweep, collected)
    before = plan_stats()
    for protocol in protocols:
        for page_size in page_sizes:
            sweep.grid[(protocol, page_size)] = _run_cell(
                trace, base.with_page_size(page_size), protocol, metrics, spans
            )
    after = plan_stats()
    _log_plan_cache({k: after[k] - before[k] for k in after})
    return sweep
