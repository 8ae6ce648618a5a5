"""Analysis tools: consistency auditing, sharing analysis, reports.

- :mod:`repro.analysis.checker` proves, per simulation run, that every
  read returned the happened-before-latest write (release consistency
  for properly-labeled programs).
- :mod:`repro.analysis.sharing` attributes traffic and false sharing to
  data structures using the trace's region map.
- :mod:`repro.analysis.report` renders experiment tables.
- :mod:`repro.analysis.timing_report` renders timed-run completion and
  stall-decomposition tables (``lrc-sim report --timing``) and the
  quick count-based runtime estimate (``lrc-sim compare``).
"""

from repro.analysis.checker import CheckReport, check_consistency, check_protocol
from repro.analysis.sharing import SharingReport, analyze_sharing
from repro.analysis.report import format_figure_table, format_table1
from repro.analysis.locks import LockProfile, LockReport, analyze_locks
from repro.analysis.protocol_stats import Distribution, ProtocolStats, instrumented_run
from repro.analysis.charts import render_series_chart, render_sweep_chart
from repro.analysis.timeline import Timeline, message_timeline
from repro.analysis.timing_report import (
    TimingEstimate,
    compare_runtimes,
    compare_timed,
    estimate_runtime,
    format_timing_detail,
    format_timing_table,
    run_timed,
    timing_rows,
)

__all__ = [
    "CheckReport",
    "check_consistency",
    "check_protocol",
    "SharingReport",
    "analyze_sharing",
    "format_figure_table",
    "format_table1",
    "LockProfile",
    "LockReport",
    "analyze_locks",
    "Distribution",
    "ProtocolStats",
    "instrumented_run",
    "render_series_chart",
    "render_sweep_chart",
    "Timeline",
    "message_timeline",
    "TimingEstimate",
    "compare_runtimes",
    "compare_timed",
    "estimate_runtime",
    "format_timing_detail",
    "format_timing_table",
    "run_timed",
    "timing_rows",
]
