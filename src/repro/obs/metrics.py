"""Metrics: counters, histograms, and the epoch/lock traffic breakdowns.

The registry receives one :meth:`~MetricsRegistry.record_segment` call
per staged segment of a probe: the counted messages and bytes of every
network send (the *same* values the ledger update in
:meth:`Network.send` adds) and the serviced access misses since the
last attribution boundary, stamped with the barrier epoch and cause. It
therefore decomposes a run's totals without re-deriving them: summing
any epoch column reproduces the corresponding
:class:`~repro.simulator.results.SimulationResult` aggregate exactly,
which is what lets the epoch tables of ``lrc-sim report`` (the paper's
Figure 3-6 style decomposition) be trusted as an audit of the headline
numbers rather than a second opinion.

Snapshots are plain nested dicts — picklable across
:func:`~repro.simulator.sweep.run_sweep` worker processes and
JSON-serializable for the CLI and CI artifacts. :func:`merge_metrics`
folds many snapshots into one, which is how sweep workers' metrics are
combined after the ProcessPoolExecutor boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Columns of one epoch row (list-backed for cheap hot-path updates).
_MSGS, _DATA, _CTRL, _MISSES = 0, 1, 2, 3
#: Per-cause sub-columns appended after the totals.
_CAUSE_COLS = {"lock": (4, 5), "barrier": (6, 7), "miss": (8, 9)}
_ROW_WIDTH = 10

#: Snapshot keys of one epoch row, in storage order.
EPOCH_FIELDS = (
    "messages",
    "data_bytes",
    "control_bytes",
    "misses",
    "lock_messages",
    "lock_data_bytes",
    "barrier_messages",
    "barrier_data_bytes",
    "miss_messages",
    "miss_data_bytes",
)

LOCK_FIELDS = ("messages", "data_bytes", "control_bytes")


class MetricsRegistry:
    """Cheap counters/histograms plus per-epoch and per-lock breakdowns."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Dict[int, int]] = {}
        #: One row per barrier epoch, grown on demand.
        self._epochs: List[List[int]] = [[0] * _ROW_WIDTH]
        #: Lock id -> [messages, data_bytes, control_bytes].
        self._locks: Dict[int, List[int]] = {}
        #: Drain callbacks for probes that stage counts locally
        #: (:meth:`RecordingProbe._drain`); invoked before any
        #: read so snapshots never miss a partially staged segment.
        self._stagers: List[Callable[[], None]] = []

    # -- staged recording ----------------------------------------------------

    def attach_stager(self, drain: Callable[[], None]) -> None:
        """Register a drain callback flushed before every read."""
        self._stagers.append(drain)

    def detach_stager(self, drain: Callable[[], None]) -> None:
        """Forget ``drain`` (a closed probe's: it has nothing left to stage)."""
        if drain in self._stagers:
            self._stagers.remove(drain)

    def _drain(self) -> None:
        for drain in self._stagers:
            drain()

    # -- hot-path recording --------------------------------------------------

    def _row(self, epoch: int) -> List[int]:
        epochs = self._epochs
        while len(epochs) <= epoch:
            epochs.append([0] * _ROW_WIDTH)
        return epochs[epoch]

    def record_segment(
        self,
        epoch: int,
        cause: Tuple[str, int],
        msgs: int,
        data_bytes: int,
        control_bytes: int,
        misses: int,
    ) -> None:
        """Fold one staged segment of constant (epoch, cause) in at once:
        ``msgs`` counted messages carrying ``data_bytes``/``control_bytes``
        in total, and ``misses`` serviced access misses. The probe stages
        plain int adds between attribution boundaries and drains here,
        so the per-event dict/tuple work stays off the hot path.
        """
        row = self._epochs[epoch] if epoch < len(self._epochs) else self._row(epoch)
        row[_MSGS] += msgs
        row[_DATA] += data_bytes
        row[_CTRL] += control_bytes
        row[_MISSES] += misses
        kind, ident = cause
        cols = _CAUSE_COLS.get(kind)
        if cols is not None:
            row[cols[0]] += msgs
            row[cols[1]] += data_bytes
        if kind == "lock":
            lock_row = self._locks.get(ident)
            if lock_row is None:
                lock_row = self._locks[ident] = [0, 0, 0]
            lock_row[0] += msgs
            lock_row[1] += data_bytes
            lock_row[2] += control_bytes

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = {}
        histogram[value] = histogram.get(value, 0) + 1

    # -- read side -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, JSON/pickle-friendly view of everything recorded."""
        self._drain()
        return {
            "epochs": [
                dict(zip(EPOCH_FIELDS, row)) for row in self._epochs
            ],
            "locks": {
                str(lock): dict(zip(LOCK_FIELDS, row))
                for lock, row in sorted(self._locks.items())
            },
            "counters": dict(self.counters),
            "histograms": {
                name: {str(k): v for k, v in sorted(h.items())}
                for name, h in self.histograms.items()
            },
        }


def merge_metrics(snapshots: Iterable[Optional[Dict[str, object]]]) -> Dict[str, object]:
    """Fold many :meth:`MetricsRegistry.snapshot` dicts into one.

    Epoch rows are summed index-wise (shorter lists are treated as
    zero-padded), lock/counter/histogram tables key-wise. ``None``
    entries (runs without metrics) are skipped, so the caller can pass
    a sweep grid's ``result.metrics`` values directly.
    """
    epochs: List[Dict[str, int]] = []
    locks: Dict[str, Dict[str, int]] = {}
    counters: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, int]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for index, row in enumerate(snap.get("epochs", ())):
            while len(epochs) <= index:
                epochs.append({field: 0 for field in EPOCH_FIELDS})
            target = epochs[index]
            for field, value in row.items():
                target[field] = target.get(field, 0) + value
        for lock, row in snap.get("locks", {}).items():
            target = locks.setdefault(lock, {field: 0 for field in LOCK_FIELDS})
            for field, value in row.items():
                target[field] = target.get(field, 0) + value
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, buckets in snap.get("histograms", {}).items():
            target_h = histograms.setdefault(name, {})
            for bucket, value in buckets.items():
                target_h[bucket] = target_h.get(bucket, 0) + value
    return {
        "epochs": epochs,
        "locks": locks,
        "counters": counters,
        "histograms": histograms,
    }
