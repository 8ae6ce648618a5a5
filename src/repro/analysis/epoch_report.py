"""The ``lrc-sim report`` backend: epoch and lock traffic decomposition.

The paper reasons about traffic *per synchronization episode* — which
barrier interval generated the messages, which lock's critical section
pulled the diffs. A :class:`~repro.obs.metrics.MetricsRegistry` snapshot
contains exactly that decomposition, and (by construction — see
:mod:`repro.obs.probe`) its per-epoch columns sum to the run's headline
aggregates, so the tables rendered here are an audit of the totals, not
an approximation. The reconciliation is asserted in the footer of every
report and pinned by ``tests/test_obs.py``.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.obs.manifest import execution_line
from repro.obs.metrics import EPOCH_FIELDS
from repro.obs.probe import RecordingProbe
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.trace.stream import TraceStream

logger = logging.getLogger(__name__)


def run_with_metrics(
    trace: TraceStream,
    protocol: str,
    page_size: int = 4096,
    config: Optional[SimConfig] = None,
    sinks: Optional[Sequence[object]] = None,
    link=None,
) -> SimulationResult:
    """Simulate with a recording probe attached; result carries metrics.

    Pass ``link`` (a :class:`~repro.network.link.LinkModel`) to run
    timed; the result additionally carries the completion/stall report
    on ``result.timing``.
    """
    if config is None:
        config = SimConfig(n_procs=trace.n_procs, page_size=page_size)
    else:
        config = config.with_page_size(page_size)
    if link is not None:
        config = config.with_options(link_model=link)
    probe = RecordingProbe(sinks=sinks)
    try:
        result = Engine(trace, config, protocol, probe=probe).run()
    finally:
        # Guaranteed drain even when the replay raises mid-epoch: sinks
        # flush whatever was staged, files close, the report stays
        # parseable.
        probe.close()
    return result


def run_with_spans(
    trace: TraceStream,
    protocol: str,
    page_size: int = 4096,
    config: Optional[SimConfig] = None,
    costs=None,
    link=None,
):
    """Simulate with a span probe; returns ``(result, timeline)``.

    Like :func:`run_with_metrics` (the result carries the exact metrics
    snapshot) but additionally reconstructs the causal span timeline for
    the critical-path section of the report. With ``link`` the run is
    timed and the timeline's message weights are the link's measured
    delays (see :func:`repro.obs.spans.build_span_timeline`).
    """
    from repro.obs.spans import build_span_timeline

    return build_span_timeline(
        trace, protocol, page_size=page_size, config=config, costs=costs,
        link_model=link,
    )


def _epoch_rows(metrics: Dict[str, object]) -> List[Dict[str, int]]:
    return list(metrics.get("epochs", ()))  # type: ignore[arg-type]


def format_epoch_table(metrics: Dict[str, object], title: str = "traffic by barrier epoch") -> str:
    """Per-epoch totals plus the lock/barrier/miss cause split."""
    rows = _epoch_rows(metrics)
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'epoch':>5} {'msgs':>9} {'data kB':>10} {'ctrl kB':>9} {'misses':>7}"
        f" {'lock':>9} {'barrier':>9} {'miss':>9}"
    )
    totals = {field: 0 for field in EPOCH_FIELDS}
    for index, row in enumerate(rows):
        for field in EPOCH_FIELDS:
            totals[field] += row.get(field, 0)
        lines.append(
            f"{index:>5} {row['messages']:>9} {row['data_bytes'] / 1024:>10.1f}"
            f" {row['control_bytes'] / 1024:>9.1f} {row['misses']:>7}"
            f" {row['lock_messages']:>9} {row['barrier_messages']:>9}"
            f" {row['miss_messages']:>9}"
        )
    lines.append(
        f"{'total':>5} {totals['messages']:>9} {totals['data_bytes'] / 1024:>10.1f}"
        f" {totals['control_bytes'] / 1024:>9.1f} {totals['misses']:>7}"
        f" {totals['lock_messages']:>9} {totals['barrier_messages']:>9}"
        f" {totals['miss_messages']:>9}"
    )
    return "\n".join(lines)


def format_lock_table(
    metrics: Dict[str, object], title: str = "traffic by lock", limit: int = 20
) -> str:
    """Per-lock traffic, heaviest first."""
    locks: Dict[str, Dict[str, int]] = metrics.get("locks", {})  # type: ignore[assignment]
    lines = [title, "-" * len(title)]
    if not locks:
        lines.append("(no lock-attributed traffic)")
        return "\n".join(lines)
    lines.append(f"{'lock':>6} {'msgs':>9} {'data kB':>10} {'ctrl kB':>9}")
    ranked = sorted(locks.items(), key=lambda item: -item[1]["messages"])
    for lock, row in ranked[:limit]:
        lines.append(
            f"{lock:>6} {row['messages']:>9} {row['data_bytes'] / 1024:>10.1f}"
            f" {row['control_bytes'] / 1024:>9.1f}"
        )
    if len(ranked) > limit:
        rest = ranked[limit:]
        lines.append(
            f"{'other':>6} {sum(r['messages'] for _, r in rest):>9}"
            f" {sum(r['data_bytes'] for _, r in rest) / 1024:>10.1f}"
            f" {sum(r['control_bytes'] for _, r in rest) / 1024:>9.1f}"
        )
    return "\n".join(lines)


def format_report(result: SimulationResult, timeline=None) -> str:
    """The full ``lrc-sim report`` text for one instrumented run.

    With a :class:`~repro.obs.spans.SpanTimeline` the report gains a
    critical-path section (stall-attribution table plus a second
    reconciliation line auditing the timeline's re-derived epoch rows
    against the metrics snapshot).
    """
    if result.metrics is None:
        raise ValueError("result has no metrics; run with a RecordingProbe attached")
    metrics = result.metrics
    header = (
        f"{result.app} under {result.protocol} @ {result.page_size}B pages, "
        f"{result.n_procs} processors"
    )
    provenance = f"seed={result.seed} trace={result.trace_digest}"
    if result.manifest and result.manifest.get("git_sha"):
        provenance += f" rev={str(result.manifest['git_sha'])[:12]}"
    rows = _epoch_rows(metrics)
    reconciled = (
        sum(r["messages"] for r in rows) == result.messages
        and sum(r["data_bytes"] for r in rows) == result.data_bytes
        and sum(r["misses"] for r in rows) == result.misses
    )
    footer = (
        f"reconciliation: epoch sums {'==' if reconciled else '!='} run totals "
        f"(msgs={result.messages}, data={result.data_kbytes:.1f}kB, "
        f"misses={result.misses})"
    )
    if not reconciled:
        logger.error("epoch breakdown does not reconcile with run totals: %s", footer)
    sections = [
        header,
        provenance,
        "",
        format_epoch_table(metrics),
        "",
        format_lock_table(metrics),
    ]
    if timeline is not None:
        from repro.analysis.critical_path import (
            analyze_critical_path,
            format_critical_path,
        )

        report = analyze_critical_path(timeline)
        spans_match = timeline.epoch_rows == rows
        span_line = (
            f"span audit: timeline epoch rows {'==' if spans_match else '!='} "
            f"metrics snapshot ({len(timeline.spans)} spans, "
            f"{len(timeline.flows)} flow edges)"
        )
        if not spans_match:
            logger.error("span timeline does not reconcile with metrics: %s", span_line)
        sections += ["", format_critical_path(report), "", span_line]
    if result.timing is not None:
        from repro.analysis.timing_report import format_timing_detail

        sections += ["", format_timing_detail(result.timing)]
    sections += ["", footer]
    plan_cache = (result.manifest or {}).get("plan_cache")
    if plan_cache:
        cache_line = "plan cache: " + " ".join(
            f"{key}={value}" for key, value in sorted(plan_cache.items())
        )
        sections.append(cache_line)
    path_line = execution_line(result.manifest)
    if path_line:
        sections.append(path_line)
    return "\n".join(sections)
