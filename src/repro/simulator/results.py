"""Simulation results: the numbers the paper's figures plot."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.message import CATEGORIES
from repro.network.stats import NetworkStats

#: Manifest keys ``to_dict`` drops: wall-clock values, and whatever
#: depends on what earlier runs in the process left in the plan cache
#: (``record``: which parts of its cell's record a run kept or read).
_VOLATILE_MANIFEST_KEYS = (
    "created",
    "timings_s",
    "plan_cache",
    "execution_path",
    "decline_reason",
    "record",
)


@dataclass
class SimulationResult:
    """Outcome of one protocol simulation of one trace.

    ``read_values`` is populated only when the config set
    ``record_values``: one entry per read event, ``(event seq, values)``
    with one observed value per word read — the input to the consistency
    checker.
    """

    app: str
    protocol: str
    page_size: int
    n_procs: int
    stats: NetworkStats
    events: int
    cold_misses: int
    invalid_misses: int
    diffs_fetched: int
    diff_bytes_fetched: int
    counters: Dict[str, int] = field(default_factory=dict)
    read_values: Optional[List[Tuple[int, List[int]]]] = None
    #: The workload's generation seed (from the trace metadata), if known.
    seed: Optional[int] = None
    #: Stable digest of the replayed trace (see ``TraceStream.digest``).
    trace_digest: Optional[str] = None
    #: Run provenance: git SHA, config, seed, digest, phase timings
    #: (see :func:`repro.obs.manifest.build_manifest`).
    manifest: Optional[Dict[str, object]] = None
    #: Snapshot of the run's :class:`~repro.obs.metrics.MetricsRegistry`
    #: when telemetry was enabled (plain dicts, JSON/pickle friendly).
    metrics: Optional[Dict[str, object]] = None
    #: Critical-path shape rollups (``crit_path_len``, ``serial_frac``,
    #: ``barrier_imbalance``) when the run was span-traced — see
    #: :mod:`repro.analysis.critical_path`.
    spans: Optional[Dict[str, float]] = None
    #: Timed-run report (simulated completion time, per-proc busy/stall
    #: decomposition, retransmission counts) when the config carried a
    #: link model — see :meth:`repro.network.timed.NetworkTiming.report`.
    timing: Optional[Dict[str, object]] = None

    @property
    def messages(self) -> int:
        """Total messages — the y axis of Figures 5, 7, 9, 11, 13."""
        return self.stats.total_messages

    @property
    def data_bytes(self) -> int:
        return self.stats.total_data_bytes

    @property
    def data_kbytes(self) -> float:
        """Total data in kbytes — the y axis of Figures 6, 8, 10, 12, 14."""
        return self.stats.total_data_kbytes

    @property
    def control_bytes(self) -> int:
        """Protocol metadata (vector clocks, write notices) on the wire."""
        return self.stats.total_control_bytes

    @property
    def misses(self) -> int:
        return self.cold_misses + self.invalid_misses

    def category_messages(self) -> Dict[str, int]:
        """Messages per Table-1 category."""
        return {name: bucket.messages for name, bucket in self.stats.by_category().items()}

    def category_data_bytes(self) -> Dict[str, int]:
        return {name: bucket.data_bytes for name, bucket in self.stats.by_category().items()}

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly summary (no per-read values).

        Every export carries the same provenance quadruple — protocol,
        page size, seed, trace digest — so result rows from the CLI,
        sweeps, and the experiment pipeline are uniformly attributable.
        """
        categories = self.stats.by_category()
        out: Dict[str, object] = {
            "app": self.app,
            "protocol": self.protocol,
            "page_size": self.page_size,
            "n_procs": self.n_procs,
            "seed": self.seed,
            "trace_digest": self.trace_digest,
            "events": self.events,
            "messages": self.messages,
            "data_kbytes": round(self.data_kbytes, 3),
            "cold_misses": self.cold_misses,
            "invalid_misses": self.invalid_misses,
            "diffs_fetched": self.diffs_fetched,
            "category_messages": {name: bucket.messages for name, bucket in categories.items()},
            "category_data_bytes": {
                name: bucket.data_bytes for name, bucket in categories.items()
            },
            **self.counters,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.spans is not None:
            out["critical_path"] = self.spans
        if self.timing is not None:
            # Deterministic for a fixed (trace, config): every quantity
            # derives from the counts and the seeded network RNG.
            out["timing"] = self.timing
        if self.manifest is not None:
            # to_dict stays deterministic across identical replays
            # (pinned by the integration tests).
            out["manifest"] = {
                k: v
                for k, v in self.manifest.items()
                if k not in _VOLATILE_MANIFEST_KEYS
            }
        return out

    def summary_row(self) -> str:
        """One formatted report line."""
        cats = self.category_messages()
        cat_str = " ".join(f"{name}={cats[name]}" for name in CATEGORIES)
        return (
            f"{self.app:<12} {self.protocol:<3} page={self.page_size:<5} "
            f"msgs={self.messages:<9} data={self.data_kbytes:>10.1f}kB  {cat_str}"
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.app!r}, {self.protocol}, page={self.page_size}, "
            f"msgs={self.messages}, data={self.data_kbytes:.1f}kB)"
        )
