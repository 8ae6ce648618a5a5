"""The Probe API: how protocols report what they are doing.

A :class:`Probe` receives *structured protocol events* (interval closes,
write-notice creation/application, diff fetches, page faults, GC sweeps,
synchronization transitions) plus a per-message accounting hook wired
into :meth:`repro.network.network.Network.send`. Two implementations:

- :class:`Probe` itself is the **null recorder**: every method is a
  no-op and ``enabled`` is False. Protocols cache that flag as
  ``self._obs`` and guard every emission site behind it, so the
  telemetry layer costs a disabled run one boolean check on the (rare)
  miss/sync paths and nothing at all on hits.
- :class:`RecordingProbe` stages each event as a row — its shape code
  (:data:`~repro.obs.sinks.EVENT_SCHEMA`), processor and field slots,
  positionally; the *barrier epoch* is constant between
  ``advance_epoch`` calls and the sequence number is the row's position
  — and stages the message hook's accounting per cause. Both drain
  together: at every epoch boundary, whenever the
  :class:`~repro.obs.metrics.MetricsRegistry` is read (``Engine.run()``
  does, so ``sink.events`` is complete when ``simulate()`` returns) and
  on ``close()`` (so a run that raises still leaves a parseable file).
  A tape run that records or reads its cell's kept record stream stages
  no event: the engine hands the probe that stream instead
  (:meth:`RecordingProbe.replay_stream`), in the same per-epoch batches.

Attribution model: the probe tracks the synchronization operation in
progress (``begin``/``end`` around acquire/release/barrier) so every
message can be attributed to a *cause* — ``("lock", id)``,
``("barrier", id)``, or the default ``("miss", -1)`` for traffic
triggered by ordinary accesses. The *epoch* is the number of completed
global barrier episodes; messages of the completing episode (arrivals,
exits, notice pulls) belong to the epoch they close. Summing any
per-epoch column therefore reproduces the run's aggregate exactly —
pinned by ``tests/test_obs.py``.

Event schema: every event is a flat dict of str -> int — ``seq``
(emission order, 0-based), ``kind``, ``epoch`` (completed-barrier-episode
count at emission), ``proc`` (acting processor, -1 if not applicable),
then its shape's fields in :data:`~repro.obs.sinks.EVENT_SCHEMA` order.
"""

from __future__ import annotations

import logging
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.sinks import (
    EVENT_SCHEMA,
    FIELD_PADDING,
    FIELD_WIDTH,
    SHAPE_CODES,
    feed,
    int_column,
)

logger = logging.getLogger(__name__)

#: The event kinds protocols emit, in schema order (docs/OBSERVABILITY.md).
EVENT_KINDS = tuple(dict.fromkeys(kind for kind, _fields in EVENT_SCHEMA))
#: Slots per staged event row: shape code, processor, field slots.
_ROW = 2 + FIELD_WIDTH

#: Default attribution when no synchronization operation is in progress.
MISS_CAUSE: Tuple[str, int] = ("miss", -1)


class Probe:
    """The null recorder: the do-nothing base of the probe API.

    Every emission site a protocol guards with ``self._obs`` calls into
    these methods; the base implementations do nothing, return nothing,
    and keep no state. :data:`NULL_PROBE` is the shared instance every
    protocol starts with.
    """

    #: False on the null recorder; RecordingProbe overrides with True.
    enabled: bool = False
    #: True when structured events are actually wanted (a RecordingProbe
    #: with sinks). Protocols cache this as ``_obs_events`` and skip the
    #: event-construction work at emission sites when it is False, so a
    #: metrics-only probe pays for accounting but not for events.
    events: bool = False

    # -- structured events ---------------------------------------------------

    def emit(self, kind: str, proc: int = -1, **fields: Any) -> None:
        """Record one structured protocol event (no-op here)."""

    # -- attribution context -------------------------------------------------

    def begin(self, cause_kind: str, cause_id: int) -> None:
        """Enter a synchronization operation (lock/barrier attribution)."""

    def end(self) -> None:
        """Leave the current synchronization operation."""

    def advance_epoch(self) -> None:
        """A global barrier episode completed; subsequent traffic is next epoch's."""

    # -- accounting hooks ----------------------------------------------------

    def on_message(
        self,
        kind: Any,
        src: int,
        dst: int,
        data_bytes: int,
        control_bytes: int,
        counted: bool,
    ) -> None:
        """Mirror of one :meth:`Network.send` ledger update (no-op here).

        Overriding this is the one way to watch individual messages —
        the network keeps no log and calls no handler; a probe that
        does is interpreted (``subclassed_probe``)."""

    def page_fault(self, proc: int, page: int, cold: bool) -> None:
        """An access miss is being serviced (no-op here)."""

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close any sinks (no-op here)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(enabled={self.enabled})"


#: The shared null recorder; protocols hold this until a probe is attached.
NULL_PROBE = Probe()


class RecordingProbe(Probe):
    """A live probe: events go to sinks, accounting to a metrics registry.

    Args:
        sinks: event sinks (see :mod:`repro.obs.sinks`); may be empty
            when only the metrics breakdowns are wanted.
        metrics: the registry accumulating counters and the
            per-epoch/per-lock breakdowns; a fresh one is created when
            omitted.
    """

    enabled = True

    def __init__(self, sinks: Optional[Sequence[Any]] = None, metrics=None):
        from repro.obs.metrics import MetricsRegistry

        self.sinks: List[Any] = list(sinks) if sinks else []
        #: Event rows staged since the last drain, in emission order:
        #: ``_ROW`` slots per row (shape code, proc, field slots) of one
        #: flat list. Not a tuple per row: a run's worth of containers
        #: brings on full collections over the whole plan heap.
        self._rows: List[Any] = []
        #: Event emission is only worth the call-site work with sinks
        #: attached; metrics-only probes leave this False (captured at
        #: attach time by Protocol.attach_probe).
        self.events = bool(self.sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._seq = 0
        self._epoch = 0
        self._cause: Tuple[str, int] = MISS_CAUSE
        #: Saved (cause, staged row) pairs; sync operations do not nest
        #: in practice, but a stack keeps begin/end robust if a subclass
        #: ever does. Rows ride along so end() restores without a dict
        #: lookup — sound because rows are zeroed on drain, never
        #: discarded, so a stacked reference stays live.
        self._cause_stack: List[Tuple[Tuple[str, int], List[int]]] = []
        #: Staged accounting for the current epoch, one row of
        #: [messages, data, control, misses] per cause. The epoch is
        #: constant between advance_epoch calls and the cause between
        #: begin/end boundaries, so the hot message hook is three int
        #: adds on ``_seg_row``; rows drain into the registry once per
        #: barrier epoch (columnar recording). ``Network.attach_probe``
        #: recognizes stock probes and performs the ``_seg_row`` adds
        #: inline on its send fast path, bypassing ``on_message``.
        self._segments: Dict[Tuple[str, int], List[int]] = {}
        self._seg_row: List[int] = self._segments.setdefault(MISS_CAUSE, [0, 0, 0, 0])
        #: Per-kind row caches keyed by the bare id — the tape kernels
        #: swap ``_seg_row`` through these instead of calling begin/end
        #: (``LazyProtocol._stage_row``), skipping tuple construction.
        self._lock_rows: Dict[int, List[int]] = {}
        self._barrier_rows: Dict[int, List[int]] = {}
        self.metrics.attach_stager(self._drain)

    # -- structured events ---------------------------------------------------

    def emit(self, kind: str, proc: int = -1, **fields: Any) -> None:
        # A metrics-only probe keeps the sequence numbering (repr,
        # subclass hooks) and stages nothing.
        self._seq += 1
        if self.sinks:
            rows = self._rows
            rows.append(SHAPE_CODES[kind, len(fields)])
            rows.append(proc)
            rows += fields.values()
            rows += FIELD_PADDING[len(fields)]

    # -- attribution context -------------------------------------------------

    def begin(self, cause_kind: str, cause_id: int) -> None:
        self._cause_stack.append((self._cause, self._seg_row))
        cause = (cause_kind, cause_id)
        self._cause = cause
        row = self._segments.get(cause)
        if row is None:
            row = self._segments[cause] = [0, 0, 0, 0]
        self._seg_row = row

    def end(self) -> None:
        stack = self._cause_stack
        if stack:
            self._cause, self._seg_row = stack.pop()
        else:
            self._cause = MISS_CAUSE
            row = self._segments.get(MISS_CAUSE)
            if row is None:
                row = self._segments[MISS_CAUSE] = [0, 0, 0, 0]
            self._seg_row = row

    def advance_epoch(self) -> None:
        self._next_epoch()

    def _next_epoch(self) -> None:
        """The stock epoch bump, which the tape kernels call in place of
        the hook. Drain before the bump: the completing episode's staged
        traffic and events belong to the epoch it closes."""
        self._drain()
        self._epoch += 1

    @property
    def epoch(self) -> int:
        """Completed global barrier episodes so far."""
        return self._epoch

    # -- accounting hooks ----------------------------------------------------

    def on_message(self, kind, src, dst, data_bytes, control_bytes, counted) -> None:
        row = self._seg_row
        if counted:
            row[0] += 1
        row[1] += data_bytes
        row[2] += control_bytes

    def page_fault(self, proc: int, page: int, cold: bool) -> None:
        self._seg_row[3] += 1
        if self.events:
            self.emit("page_fault", proc=proc, page=page, cold=int(cold))

    def _cause_row(self, kind: str, ident: int) -> List[int]:
        """The staged row charging ``(kind, ident)``, created on demand.

        Shared with :meth:`begin` through ``_segments``, so the tape
        kernels and explicit begin/end calls stage into the same row.
        """
        return self._segments.setdefault((kind, ident), [0, 0, 0, 0])

    def _drain(self) -> None:
        """Drain what the current epoch staged: the per-cause rows into
        the registry, the event rows into the sinks.

        Cause rows are zeroed in place, never discarded: stacked and
        inlined references (``_cause_stack``, ``Network``'s fast path)
        stay valid across drains, and the cause set per run is small so
        the retained dict costs nothing.
        """
        segments = self._segments
        record = self.metrics.record_segment
        epoch = self._epoch
        for cause, row in segments.items():
            if row[0] or row[1] or row[2] or row[3]:
                record(epoch, cause, row[0], row[1], row[2], row[3])
                row[0] = row[1] = row[2] = row[3] = 0
        rows = self._rows
        if not rows:
            return
        kinds, procs = array("B", rows[0::_ROW]), array("h", rows[1::_ROW])
        del rows[0::_ROW]  # what is left is (proc, field slots) per row...
        del rows[0 :: _ROW - 1]  # ...and then the field slots alone
        feed(self.sinks, kinds, procs, int_column(rows), epoch, self._seq - len(kinds))
        del rows[:]

    def replay_stream(self, records) -> None:
        """Receive the events of a tape run that staged none: the record
        stream it recorded or its cell's kept one (:class:`~repro.obs.spans.SpanRecords`) goes
        to the sinks in the per-epoch batches a drain would have made,
        numbered from here on. The run has already advanced the epoch
        past the stream's epoch marks."""
        ends = [*records.epoch_ends, len(records.ev_kinds)]
        epoch = self._epoch - len(ends) + 1
        lo = 0
        for hi in ends:
            if hi > lo and self.sinks:
                feed(self.sinks, *records.events(lo, hi), epoch, self._seq + lo)
            lo = hi
            epoch += 1
        self._seq += lo

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._drain()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        # Closing ends the probe's life. The registry's callback is the
        # one reference cycle a probe sits in; without it a closed probe
        # (and a span probe's record stream) is freed when its last user
        # lets go, not at the next full collection.
        self.metrics.detach_stager(self._drain)

    def __repr__(self) -> str:
        return (
            f"RecordingProbe(events={self._seq}, epoch={self._epoch}, "
            f"sinks={len(self.sinks)})"
        )


#: Every probe hook a fast path bypasses: the tape kernels swap
#: ``_seg_row`` instead of calling ``begin``/``end``, ``Network.send``
#: adds to it instead of calling ``on_message``, the
#: priced eager tape folds faults in without ``page_fault``, and no path
#: calls ``emit`` without sinks. ``advance_epoch`` frames them all.
_BYPASSED_HOOKS = ("begin", "end", "on_message", "page_fault", "advance_epoch", "emit")


def is_stock_staging(probe: Optional[Probe], stock: type = RecordingProbe) -> bool:
    """True for a live ``stock`` probe that overrides none of the hooks
    the fast paths bypass — the one place that is decided.

    A stock :class:`RecordingProbe`'s staged rows may be charged inline
    (``Protocol.attach_probe``, ``Network.attach_probe``) and a run
    under it may replay from the tape. The other stock class is
    :class:`~repro.obs.spans.SpanProbe` (``stock=SpanProbe``): its hooks
    are called wherever a stock probe's are charged inline, and the
    tape kernels write its record stream themselves. Any other live
    probe declines the tape as ``subclassed_probe``
    (:func:`repro.protocols.base.certify_replay`) and is interpreted,
    every hook called.
    """
    if probe is None or not probe.enabled or not isinstance(probe, stock):
        return False
    cls = type(probe)
    return all(getattr(cls, hook) is getattr(stock, hook) for hook in _BYPASSED_HOOKS)
