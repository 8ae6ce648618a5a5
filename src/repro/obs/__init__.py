"""Observability: structured protocol tracing, metrics, run provenance.

The simulator's headline numbers (:class:`~repro.simulator.results
.SimulationResult`) are end-of-run aggregates; the paper's evaluation,
however, *explains* those aggregates by decomposing them into causes —
write notices, diff traffic, lock vs. barrier messages (§5, Figures
3-6). This package is the layer that makes those decompositions
observable in our runs:

- :mod:`~repro.obs.probe` — the :class:`Probe` API protocols emit
  structured events into. The default :data:`NULL_PROBE` is a
  do-nothing recorder; the hot paths guard every emission behind a
  cached boolean, so a run without telemetry pays nothing but the
  guard (measured <3% when the layer went in).
- :mod:`~repro.obs.sinks` — the event schema (``EVENT_SCHEMA``, one
  row per event shape) and pluggable event sinks: in-memory, JSONL,
  and columnar typed-array storage.
- :mod:`~repro.obs.metrics` — :class:`MetricsRegistry`: cheap counters
  and histograms plus the per-barrier-epoch and per-lock message/byte
  breakdowns, reconciling *exactly* with the run's aggregates.
- :mod:`~repro.obs.manifest` — run provenance (git SHA, config, seed,
  trace digest, phase timings, plan-cache activity) attached to every
  result.
- :mod:`~repro.obs.spans` — causal span timelines: a
  :class:`SpanProbe` reads the run's record stream (written by its
  hooks or the tape kernels, kept per cell once a cell is observed
  again) and a post-hoc
  builder reconstructs per-processor weighted spans linked by
  happens-before flow edges, exportable as Perfetto-loadable Chrome
  trace-event JSON and analyzable by
  :mod:`repro.analysis.critical_path`.
- :mod:`~repro.obs.logconfig` — ``logging_setup()``, the one place the
  ``repro`` logging tree is configured (CLI ``--verbose``/``--quiet``).
"""

from repro.obs.logconfig import logging_setup
from repro.obs.manifest import build_manifest, git_sha
from repro.obs.metrics import MetricsRegistry, merge_metrics
from repro.obs.probe import NULL_PROBE, Probe, RecordingProbe
from repro.obs.sinks import ColumnarSink, JsonlSink, MemorySink, read_jsonl
from repro.obs.spans import (
    SpanCosts,
    SpanProbe,
    SpanTimeline,
    build_span_timeline,
    to_chrome_trace,
)

__all__ = [
    "Probe",
    "RecordingProbe",
    "NULL_PROBE",
    "SpanProbe",
    "SpanCosts",
    "SpanTimeline",
    "build_span_timeline",
    "to_chrome_trace",
    "MetricsRegistry",
    "merge_metrics",
    "MemorySink",
    "JsonlSink",
    "ColumnarSink",
    "read_jsonl",
    "build_manifest",
    "git_sha",
    "logging_setup",
]
