"""Causal span timelines: post-hoc critical-path reconstruction.

The counting simulator reports *totals*; this module reconstructs the
*shape* of a run — a per-processor timeline of weighted spans (compute
chunks, lock acquires, releases, barrier arrive/wait/exit, page and
diff fetches, write faults) linked by happens-before flow edges
(release→acquire grants, barrier broadcasts, write-notice deliveries).
On that weighted DAG the analyzer in
:mod:`repro.analysis.critical_path` computes the critical path and a
stall-attribution breakdown per protocol.

Two pieces:

- :class:`SpanProbe` — a :class:`~repro.obs.probe.RecordingProbe`
  subclass that also keeps every probe call (begin/end windows,
  structured events, per-message accounting, epoch bumps) in one
  globally ordered :class:`SpanRecords` stream, the metrics snapshot of
  an instrumented run staying *exact*. The stream has one set of
  writers and two callers: the probe's hooks wherever hooks are called
  (the interpreters and their every ``Network.send``), and the tape
  kernels, which write what the hooks they bypass would have, from the
  records they replay. A tape run of a cell run before writes a stream
  the engine keeps in the cell's record, and every later stock
  observer of the cell reads it. So a span-traced run takes the
  ``tape`` path like any other, and **tracing-off runs are untouched**
  — a kernel tests for the stream behind its probe test.
- :class:`SpanBuilder` — replays the record stream once, against a
  :class:`SpanCosts` model and the compute profile from
  :func:`repro.hb.skeleton.sync_compute_profile`, advancing one virtual
  clock per processor. Message latencies, diff create/apply costs, and
  word-access costs come from the cost model; lock serialization falls
  out of comparing a requester's (virtual) request arrival with the
  grantor's (virtual) release time, and barrier imbalance from the
  spread of (virtual) arrival times.

Modeling notes (deliberate approximations, documented for the report):

- Each compute chunk is laid down *whole* before the first miss or sync
  window that interrupts it; misses then follow the chunk. The counting
  trace records no intra-chunk positions, so this is the resolution
  floor.
- Fetch servers respond immediately (no queueing at the server), as a
  software-DSM interrupt handler would; the flow edge from the server's
  last span records causality for the Perfetto view without delaying
  the requester.
- Local (same-processor) "messages" are free and invisible, exactly as
  in the counting network.

The builder also re-derives the full 10-column per-epoch traffic rows
from the same record stream; ``SpanTimeline.epoch_rows`` must equal the
run's :class:`~repro.obs.metrics.MetricsRegistry` snapshot exactly —
pinned across all seven protocols by ``tests/test_spans.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulatorError
from repro.common.gcpause import gc_paused
from repro.network.message import KIND_NAMES, MessageKind
from repro.obs.metrics import EPOCH_FIELDS
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import EVENT_SCHEMA, FIELD_PADDING, FIELD_WIDTH, SHAPE_CODES, int_column

#: Stall-attribution categories, in report order. Every span's duration
#: decomposes exactly into these buckets.
STALL_CATEGORIES = (
    "compute",             # word accesses (the only useful work)
    "diff_create",         # twin comparison at interval close / flush
    "lock_transfer",       # lock request/forward/grant message latency
    "lock_serialization",  # waiting for the grantor's release
    "page_fetch",          # full-page miss round trips
    "diff_fetch",          # diff request/reply latency + diff applies
    "flush",               # eager release/HLRC home flush traffic
    "barrier_transfer",    # barrier arrival/exit message latency
    "barrier_wait",        # idle at a barrier before the last arrival
    "write_fault",         # EW ownership transfer traffic
    "serialization",       # finite-bandwidth wire occupancy + queueing
    "retransmit",          # timeout penalties of dropped messages
    "other",               # unattributed traffic (should stay zero)
)

_UNLOCK_KINDS = frozenset(
    ("WRITE_NOTICE", "UPDATE", "RELEASE_ACK", "OWNER_RECONCILE")
)
_LOCK_REQ_KINDS = frozenset(("LOCK_REQUEST", "LOCK_FORWARD"))
_LOCK_GRANT_KINDS = frozenset(("LOCK_GRANT", "LOCK_NOTICE"))
_DIFF_PULL_KINDS = frozenset(
    (
        "DIFF_REQUEST",
        "DIFF_REPLY",
        "ACQUIRE_DIFF_REQUEST",
        "ACQUIRE_DIFF_REPLY",
        "BARRIER_UPDATE_REQUEST",
        "BARRIER_UPDATE",
    )
)

#: Epoch-row cause sub-columns, mirroring repro.obs.metrics._CAUSE_COLS.
_CAUSE_COLS = {"lock": (4, 5), "barrier": (6, 7), "miss": (8, 9)}
_ROW_WIDTH = 10


@dataclass(frozen=True)
class SpanCosts:
    """Cost constants that weight the span DAG (all in seconds).

    ``message_s``/``byte_s``/``diff_create_s``/``diff_apply_s`` mirror
    :func:`~repro.analysis.timing_report.estimate_runtime`; ``access_s`` is the
    per-word compute cost between synchronization points (a DECstation
    word access is ~50 ns, which makes compute visible next to ~1 ms
    messages without dominating). The presets read the canonical
    constants in :data:`repro.network.link.PRESET_CONSTANTS` — one
    source, shared with the link model and the runtime estimate, so the
    literals can no longer drift apart.
    """

    message_s: float = 1e-3
    byte_s: float = 8e-7
    access_s: float = 5e-8
    diff_create_s: float = 5e-4
    diff_apply_s: float = 2e-4

    @classmethod
    def from_link(cls, link, preset: str = "ethernet_1992") -> "SpanCosts":
        """The span cost model equivalent to a timed-mode link.

        Wire constants come from the :class:`~repro.network.link.LinkModel`
        itself; the diff CPU constants (which the link model does not
        carry — it describes the network, not the processor) come from
        the named preset.
        """
        from repro.network.link import PRESET_CONSTANTS

        constants = PRESET_CONSTANTS[preset]
        return cls(
            message_s=link.overhead_s + link.latency_s,
            byte_s=link.per_byte_s,
            access_s=link.access_s,
            diff_create_s=constants["diff_create_s"],
            diff_apply_s=constants["diff_apply_s"],
        )

    @classmethod
    def from_preset(cls, name: str) -> "SpanCosts":
        from repro.network.link import LinkModel

        return cls.from_link(LinkModel.from_preset(name), preset=name)

    @classmethod
    def ethernet_1992(cls) -> "SpanCosts":
        return cls.from_preset("ethernet_1992")

    @classmethod
    def modern_cluster(cls) -> "SpanCosts":
        return cls.from_preset("modern_cluster")


class Span:
    """One weighted interval on one processor's timeline.

    ``pred`` is the *determining* predecessor — the span whose finish
    gates this one's start on the happens-before DAG (same-processor
    program order by default; a remote release/last barrier arrival when
    that is what actually gated progress). ``buckets`` decomposes the
    duration into :data:`STALL_CATEGORIES`.
    """

    __slots__ = ("sid", "proc", "kind", "start", "end", "pred", "buckets", "label", "args")

    def __init__(self, sid, proc, kind, start, end, pred, buckets, label, args=None):
        self.sid = sid
        self.proc = proc
        self.kind = kind
        self.start = start
        self.end = end
        self.pred = pred
        self.buckets = buckets
        self.label = label
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.sid}, p{self.proc}, {self.label!r}, "
            f"[{self.start:.6f}, {self.end:.6f}])"
        )


class SpanTimeline:
    """The reconstructed per-processor span DAG of one run."""

    def __init__(self, app: str, protocol: str, n_procs: int, costs: SpanCosts):
        self.app = app
        self.protocol = protocol
        self.n_procs = n_procs
        self.costs = costs
        self.spans: List[Span] = []
        #: Cross-processor causality, (source span id, target span id).
        self.flows: List[Tuple[int, int]] = []
        #: Re-derived per-epoch traffic rows; must equal the run's
        #: MetricsRegistry snapshot field for field.
        self.epoch_rows: List[Dict[str, int]] = []
        #: Sum over barrier episodes of (completion - mean arrival).
        self.barrier_imbalance_s = 0.0
        self.barrier_episodes = 0

    @property
    def makespan(self) -> float:
        """The virtual finish time of the whole run."""
        return max((span.end for span in self.spans), default=0.0)

    def stall_totals(self) -> Dict[str, float]:
        """Processor-seconds per stall category, summed over all spans."""
        totals = dict.fromkeys(STALL_CATEGORIES, 0.0)
        for span in self.spans:
            for category, seconds in span.buckets.items():
                totals[category] += seconds
        return totals

    def __repr__(self) -> str:
        return (
            f"SpanTimeline({self.app!r}, {self.protocol}, {len(self.spans)} spans, "
            f"makespan={self.makespan:.6f}s)"
        )


#: Record codes of a :class:`SpanRecords` stream. A message's code is
#: ``_MSG + 2 * kind slot + counted``.
_EV, _BEGIN_LOCK, _BEGIN_BARRIER, _END, _EPOCH, _MSG = 0, 1, 2, 3, 4, 8
_BEGIN = {"lock": _BEGIN_LOCK, "barrier": _BEGIN_BARRIER}
_CAUSES = {_BEGIN_LOCK: "lock", _BEGIN_BARRIER: "barrier"}
#: A message code's kind name, indexed by the code.
_MSG_NAMES = (None,) * _MSG + tuple(name for name in KIND_NAMES for _counted in (0, 1))


class SpanRecords:
    """The span record stream: everything a stock observer receives of
    one run, in order, as typed columns.

    Five record kinds; the stream iterates as these tuples and
    ``len()`` counts them::

        ("begin", cause_kind, cause_id)       sync window opens
        ("end",)                              sync window closes
        ("ev", kind, proc, fields_or_None)    one structured event
        ("msg", kind_name, src, dst, data_bytes, control_bytes, counted)
        ("epoch",)                            barrier episode completed

    Stored positionally, no object per record: one code per record
    (``codes``), and per kind its own columns — events as shape code,
    processor and ``FIELD_WIDTH`` field slots (the schema of
    :mod:`repro.obs.sinks`), messages as ``(src, dst, data, control)``,
    window openings as their id — plus ``epoch_ends``, the event count
    at each epoch mark, where a sink's per-epoch batches split. The
    methods below are the only writers: :class:`SpanProbe`'s hooks call
    them where hooks are called, the tape kernels directly. When a run
    keeps its stream, :meth:`freeze` packs the lists into typed arrays
    and the engine keeps it in the cell's
    :class:`~repro.hb.skeleton.CellRecord`; every later observed run of
    the cell reads it (a :class:`SpanProbe`'s ``records`` *is* it, until
    the probe observes another run and :meth:`writable` copies it).
    Streams compare equal record for record, whichever path wrote them.
    """

    __slots__ = ("codes", "ev_kinds", "ev_procs", "ev_fields", "msgs", "idents", "epoch_ends")

    def __init__(self) -> None:
        self.codes: Any = []
        self.ev_kinds: Any = []
        self.ev_procs: Any = []
        self.ev_fields: Any = []
        self.msgs: Any = []
        self.idents: Any = []
        self.epoch_ends: Any = []

    # -- writers -------------------------------------------------------------

    def begin(self, cause_kind: str, cause_id: int) -> None:
        self.codes.append(_BEGIN[cause_kind])
        self.idents.append(cause_id)

    def end(self) -> None:
        self.codes.append(_END)

    def emit(self, kind: str, proc: int = -1, **fields: int) -> None:
        """One event, behind :meth:`Probe.emit <repro.obs.probe.Probe.emit>`'s
        signature: its fields are stored in the order they are passed."""
        self.codes.append(_EV)
        self.ev_kinds.append(SHAPE_CODES[kind, len(fields)])
        self.ev_procs.append(proc)
        self.ev_fields += fields.values()
        self.ev_fields += FIELD_PADDING[len(fields)]

    def msg(self, slot, src, dst, data_bytes, control_bytes, counted) -> None:
        self.codes.append(_MSG + 2 * slot + bool(counted))
        self.msgs += (src, dst, data_bytes, control_bytes)

    def epoch(self) -> None:
        self.codes.append(_EPOCH)
        self.epoch_ends.append(len(self.ev_kinds))

    def sender(self, cost_model):
        """:meth:`msg` behind ``Network.send``'s signature: writes the
        record ``on_message`` would have been handed by a network that
        accounts by ``cost_model``, and touches no ledger."""
        append_code, extend = self.codes.append, self.msgs.extend
        count_control = cost_model.count_control_in_data
        header = cost_model.header_bytes if cost_model.count_header_in_data else 0
        codes = [
            _MSG + 2 * kind.slot + (cost_model.count_acks or not kind.is_ack)
            for kind in MessageKind
        ]

        def send(kind, src, dst, payload_bytes=0, control_bytes=0):
            if src != dst:  # local sends are free and invisible
                data = payload_bytes + header
                if count_control:
                    data += control_bytes
                append_code(codes[kind.slot])
                extend((src, dst, data, control_bytes))

        return send

    def freeze(self) -> "SpanRecords":
        """Pack the columns into typed arrays; returns the stream, which
        nothing writes again."""
        self.codes = array("B", self.codes)
        self.ev_kinds = array("B", self.ev_kinds)
        self.ev_procs = array("h", self.ev_procs)
        self.ev_fields = int_column(self.ev_fields)
        self.msgs = int_column(self.msgs)
        self.idents = int_column(self.idents)
        self.epoch_ends = int_column(self.epoch_ends)
        return self

    def extend(self, other: "SpanRecords") -> None:
        """Append ``other``'s records, as if written after these."""
        offset = len(self.ev_kinds)
        for name in self.__slots__[:-1]:
            getattr(self, name).extend(getattr(other, name))
        self.epoch_ends.extend(offset + end for end in other.epoch_ends)

    def writable(self) -> "SpanRecords":
        """This stream, or a writable copy of it once frozen."""
        if not isinstance(self.codes, array):
            return self
        copy = SpanRecords()
        copy.extend(self)
        return copy

    # -- readers -------------------------------------------------------------

    def events(self, lo: int, hi: int):
        """Events ``lo`` to ``hi`` as sink columns: ``(kinds, procs, fields)``."""
        return (
            self.ev_kinds[lo:hi],
            self.ev_procs[lo:hi],
            self.ev_fields[FIELD_WIDTH * lo : FIELD_WIDTH * hi],
        )

    def cursors(self):
        """``(next event, next message, next window id)``: what a walk
        over ``codes`` pulls each record's values with — an event as
        ``(shape, proc, *field slots)``, a message as ``(src, dst, data,
        control)``."""
        fields = iter(self.ev_fields)
        values = iter(self.msgs)
        return (
            zip(self.ev_kinds, self.ev_procs, *[fields] * FIELD_WIDTH).__next__,
            zip(*[values] * 4).__next__,
            iter(self.idents).__next__,
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        next_ev, next_msg, next_ident = self.cursors()
        for code in self.codes:
            if code >= _MSG:
                yield ("msg", _MSG_NAMES[code], *next_msg(), bool(code & 1))
            elif code == _EV:
                shape, proc, *fields = next_ev()
                kind, names = EVENT_SCHEMA[shape]
                yield ("ev", kind, proc, dict(zip(names, fields)) or None)
            elif code == _END:
                yield ("end",)
            elif code == _EPOCH:
                yield ("epoch",)
            else:
                yield ("begin", _CAUSES[code], next_ident())

    def _columns(self) -> List[List[int]]:
        return [list(getattr(self, name)) for name in self.__slots__]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanRecords):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return f"SpanRecords({len(self)} records)"


class SpanProbe(RecordingProbe):
    """A RecordingProbe that additionally keeps the raw call stream.

    ``records`` is the run's :class:`SpanRecords`. Where hooks are
    called, every override writes its record and does what the stock
    hook does, so metrics stay exact; on the tape the run writes or
    reads its cell's kept stream instead and ``records`` becomes that
    stream (:meth:`replay_stream`). ``events`` is forced True so
    protocols route all emission sites through :meth:`emit` even with
    no sinks attached. A subclass that overrides one of these hooks
    again is a ``subclassed_probe`` and has every one of them called
    (by the interpreter).
    """

    def __init__(self, sinks: Optional[Sequence[Any]] = None, metrics=None):
        super().__init__(sinks=sinks, metrics=metrics)
        self.records = SpanRecords()
        # Protocol.attach_probe caches this as _obs_events; True routes
        # every emission site through emit().
        self.events = True

    def emit(self, kind: str, proc: int = -1, **fields: Any) -> None:
        self.records.emit(kind, proc, **fields)
        super().emit(kind, proc, **fields)

    def begin(self, cause_kind: str, cause_id: int) -> None:
        self.records.begin(cause_kind, cause_id)
        super().begin(cause_kind, cause_id)

    def end(self) -> None:
        self.records.end()
        super().end()

    def advance_epoch(self) -> None:
        # Written before the epoch counter bumps: traffic recorded
        # before this marker belongs to the episode it closes, exactly
        # like the stock drain-then-bump order.
        self.records.epoch()
        super().advance_epoch()

    def on_message(self, kind, src, dst, data_bytes, control_bytes, counted) -> None:
        self.records.msg(kind.slot, src, dst, data_bytes, control_bytes, counted)
        super().on_message(kind, src, dst, data_bytes, control_bytes, counted)

    def replay_stream(self, records: SpanRecords) -> None:
        super().replay_stream(records)
        if len(self.records):  # a probe observing one more run
            self.records = self.records.writable()
            self.records.extend(records)
        else:
            self.records = records

    def __repr__(self) -> str:
        return f"SpanProbe(records={len(self.records)}, epoch={self._epoch})"


#: The stall sums of a sync window, as indices into one list.
_FLUSH, _REQUEST, _GRANT, _PAGE, _DIFF, _ARRIVAL = range(6)


def _per_code(value, *args) -> tuple:
    """``value(kind name, *args)`` for every message code, indexed by the code."""
    return _MSG_NAMES[:_MSG] + tuple(value(name, *args) for name in _MSG_NAMES[_MSG:])


#: Which sum a message lands in, by the window's marker event and then
#: its code. An acquire's default is its diff pulls (LU/LH), a release
#: only ever flushes, a barrier arrival's default is BARRIER_ARRIVAL and
#: the notices split off it.
_WINDOW_SUMS = {
    SHAPE_CODES["acquire", 1]: _per_code(
        {
            **dict.fromkeys(_LOCK_REQ_KINDS, _REQUEST),
            **dict.fromkeys(_LOCK_GRANT_KINDS, _GRANT),
            **dict.fromkeys(_UNLOCK_KINDS, _FLUSH),  # HLRC home flush at interval close
            **dict.fromkeys((n for n in KIND_NAMES if n.startswith("PAGE")), _PAGE),
        }.get,
        _DIFF,
    ),
    SHAPE_CODES["release", 1]: _per_code({}.get, _FLUSH),
    SHAPE_CODES["barrier_arrive", 1]: _per_code(
        dict.fromkeys(  # eager barrier-time flush
            (*_UNLOCK_KINDS,
             "BARRIER_NOTICE", "BARRIER_UPDATE", "BARRIER_ACK", "BARRIER_RECONCILE"),
            _FLUSH,
        ).get,
        _ARRIVAL,
    ),
}
#: A message's stall category outside any window, or None for the
#: category of the context it lands in.
_STRAY_CATEGORY = _per_code(
    lambda name: "page_fetch" if name.startswith("PAGE")
    else "diff_fetch" if name in _DIFF_PULL_KINDS else None
)
#: After ``barrier_complete``: the exiting client is a request's sender
#: and any other message's receiver; a pull lands in its exit's
#: diff_fetch slot (1), anything else in barrier_transfer (0).
_CLIENT_IS_SRC = _per_code(lambda name: name.endswith("_REQUEST"))
_PULL_SLOT = _per_code(lambda name: int(name in _DIFF_PULL_KINDS))
#: Where an acquire's grantor is: a forward's receiver (1, ``dst``), a
#: grant's sender (0, ``src``); None for every other message.
_GRANTOR_AT = _per_code({"LOCK_FORWARD": 1, "LOCK_GRANT": 0}.get)
#: The event shapes the builder tells apart.
_ACQUIRE = SHAPE_CODES["acquire", 1]
_RELEASE = SHAPE_CODES["release", 1]
_ARRIVE = SHAPE_CODES["barrier_arrive", 1]
_COMPLETE = SHAPE_CODES["barrier_complete", 1]
_DIFF_CREATE = SHAPE_CODES["diff_create", 3]
_DIFF_APPLY = SHAPE_CODES["diff_apply", 2]
_PAGE_FAULT = SHAPE_CODES["page_fault", 2]
_WRITE_FAULT = SHAPE_CODES["write_fault", 1]
#: The context a fault event opens: its span kind and label prefix.
_FAULT_CONTEXTS = {
    _PAGE_FAULT: ("fetch", "fetch page "),
    _WRITE_FAULT: ("write_fault", "write fault page "),
}
#: Where a shape keeps the fields the builder reads, as an index into
#: an event row ``(shape, proc, *field slots)``; None for a shape
#: without the field.
_PAGE_AT, _COUNT_AT, _SERVER_AT = (
    tuple(2 + names.index(name) if name in names else None for _kind, names in EVENT_SCHEMA)
    for name in ("page", "count", "server")
)
#: An unused record code the builder appends to the stream: it closes
#: the last context like a window's opening would, and ends the pass.
_STOP = 5


class SpanBuilder:
    """Single-pass assembly of a :class:`SpanTimeline` from a record stream.

    One virtual clock per processor advances through compute chunks
    (from the sync compute profile), sync windows, and miss contexts in
    global record order; a window is folded where it lies in the
    stream, into a handful of sums that place its spans at its "end".
    The same pass re-derives the per-epoch traffic rows, making the
    timeline self-auditing against the run's metrics.
    """

    def __init__(
        self, records: SpanRecords, profile: Sequence[Sequence[int]], costs: SpanCosts,
        n_procs: int, app: str = "", protocol: str = "",
        delays: Optional[Sequence[Tuple[float, float, float]]] = None,
    ):
        self.records = records
        self.profile = profile
        self.costs = costs
        self.n_procs = n_procs
        # A timed run's measured ``(total_s, serialization_s,
        # retransmit_s)`` per "msg" record (NetworkTiming.delay_log), in
        # stream order: they replace the synthetic per-message charge.
        self._delays = delays
        self._delay_idx = 0
        self.timeline = SpanTimeline(app, protocol, n_procs, costs)
        # -- virtual clocks and program-order state --
        self.clock = [0.0] * n_procs
        self.prev: List[Optional[int]] = [None] * n_procs
        self._ptr = [0] * n_procs          # next compute chunk per proc
        self._laid = [False] * n_procs     # current chunk already laid?
        # -- causality state --
        self._release_point: Dict[int, Tuple[float, int]] = {}
        self._arrivals: Dict[int, List[Tuple[int, float, int]]] = {}
        # -- epoch accounting (mirrors RecordingProbe staging exactly):
        # one row per epoch, the last one current --
        self._erows: List[List[int]] = [[0] * _ROW_WIDTH]

    # -- epoch accounting ----------------------------------------------------

    def _account(self, cause_kind: str, messages: int, data: int, ctrl: int, faults: int) -> None:
        """Charge one cause's traffic to the current epoch's row, once
        per window and per stretch between windows."""
        row = self._erows[-1]
        row[0] += messages
        row[1] += data
        row[2] += ctrl
        row[3] += faults
        messages_at, data_at = _CAUSE_COLS[cause_kind]
        row[messages_at] += messages
        row[data_at] += data

    # -- compute chunks ------------------------------------------------------

    def _ensure_compute(self, proc: int) -> None:
        """Lay the processor's current compute chunk, once, before the
        first record that interrupts it."""
        if self._laid[proc]:
            return
        self._laid[proc] = True
        chunks = self.profile[proc] if proc < len(self.profile) else ()
        k = self._ptr[proc]
        weight = chunks[k] if k < len(chunks) else 0
        if weight:
            dur = weight * self.costs.access_s
            self._extend(
                proc, "compute", self.clock[proc] + dur, self.prev[proc],
                {"compute": dur}, f"compute ({weight} words)",
            )

    # -- message costs -------------------------------------------------------

    def _next_delay(self) -> Tuple[float, float, float]:
        """The next message's delays from the log. A stream with more
        messages than the log raises here, one with fewer at the end of
        :meth:`build`: a timeline weighted with another message's delay
        is quietly wrong from there on."""
        index = self._delay_idx
        self._delay_idx = index + 1
        try:
            return self._delays[index]
        except IndexError:
            raise SimulatorError(
                f"span stream and delay log are misaligned: message {index + 1} "
                f"consumed, {len(self._delays)} delays available"
            ) from None

    def _extend(self, proc, kind, end, pred, buckets, label, args=None, ser_s=0.0, rtx_s=0.0):
        """Add the span that takes ``proc``'s clock from where it is to
        ``end``; a timed run's wire seconds close its buckets."""
        if ser_s:
            buckets["serialization"] = ser_s
        if rtx_s:
            buckets["retransmit"] = rtx_s
        spans = self.timeline.spans
        sid = len(spans)
        spans.append(Span(sid, proc, kind, self.clock[proc], end, pred, buckets, label, args))
        self.clock[proc] = end
        self.prev[proc] = sid
        return sid

    # -- main pass -----------------------------------------------------------

    def build(self) -> SpanTimeline:
        """Fold the stream in one loop: each window in :meth:`_window`, on
        the same iterator; any other record into the open miss or
        write-fault context, which the next fault or window places."""
        costs = self.costs
        message_s, byte_s, diff_apply_s = costs.message_s, costs.byte_s, costs.diff_apply_s
        delays, flows, clock, prev = self._delays, self.timeline.flows, self.clock, self.prev
        codes = chain(self.records.codes, (_STOP,))
        self._next_ev, self._next_msg, next_ident = self.records.cursors()
        next_ev, next_msg = self._next_ev, self._next_msg
        MSG, EV, END, EPOCH, STOP, PAGE_FAULT = _MSG, _EV, _END, _EPOCH, _STOP, _PAGE_FAULT
        # The open context: its processor (None: no context), span kind,
        # label, stall buckets in first-charge order, and servers.
        ctx_proc = ctx_kind = ctx_label = buckets = servers = None
        ser_s = rtx_s = 0.0  # without a delay log, no message has either
        # Traffic outside windows is the miss cause's, charged when a
        # window (where alone the epoch can advance) or the end comes up.
        messages = data = ctrl = faults = 0
        for code in codes:
            if code >= MSG:
                src, dst, d, e = next_msg()
                if code & 1:
                    messages += 1
                data += d
                ctrl += e
                if ctx_proc is None:
                    self._ensure_compute(src)
                    ctx_proc, ctx_kind, ctx_label = src, "other", "unattributed traffic"
                    buckets, servers = {}, set()
                if delays is None:
                    cost = message_s + (d + e) * byte_s
                else:
                    cost, ser_s, rtx_s = self._next_delay()
                    cost -= ser_s + rtx_s
                category = _STRAY_CATEGORY[code] or (
                    "write_fault" if ctx_kind == "write_fault" else "other"
                )
                buckets[category] = buckets.get(category, 0.0) + cost
                if ser_s:
                    buckets["serialization"] = buckets.get("serialization", 0.0) + ser_s
                if rtx_s:
                    buckets["retransmit"] = buckets.get("retransmit", 0.0) + rtx_s
                counterpart = dst if src == ctx_proc else src
                if counterpart != ctx_proc:
                    servers.add(counterpart)
                continue
            if code == EV:
                row = next_ev()
                shape = row[0]
                if shape == PAGE_FAULT:
                    faults += 1
                    if ctx_kind == "write_fault" and ctx_proc == row[1]:
                        continue  # nested fetch inside an EW ownership fault
                elif shape != _WRITE_FAULT:
                    if ctx_proc is not None:
                        if shape == _DIFF_APPLY:
                            seconds = row[_COUNT_AT[shape]] * diff_apply_s
                            buckets["diff_fetch"] = buckets.get("diff_fetch", 0.0) + seconds
                        at = _SERVER_AT[shape]
                        if at is not None:
                            servers.add(row[at])
                    continue
            elif code == END:
                continue
            else:  # a window opens, an epoch outside any window, or the end
                self._account("miss", messages, data, ctrl, faults)
                messages = data = ctrl = faults = 0
                if code == EPOCH:
                    self._erows.append([0] * _ROW_WIDTH)
                    continue
            # A fault, a window or the end: close the open context.
            if ctx_proc is not None:
                sid = self._extend(
                    ctx_proc, ctx_kind, clock[ctx_proc] + sum(buckets.values()), prev[ctx_proc],
                    buckets, ctx_label,
                )
                for server in sorted(servers):
                    if server != ctx_proc and server < self.n_procs and prev[server] is not None:
                        flows.append((prev[server], sid))
                ctx_proc = ctx_kind = None
            if code == EV:
                ctx_proc = row[1]
                self._ensure_compute(ctx_proc)
                ctx_kind, prefix = _FAULT_CONTEXTS[shape]
                ctx_label = f"{prefix}{row[_PAGE_AT[shape]]}"
                buckets, servers = {}, set()
            elif code == STOP:
                break
            else:
                self._window(_CAUSES[code], next_ident(), codes)
        for proc in range(self.n_procs):
            self._ensure_compute(proc)  # lay the tail chunks
        rows = self._erows
        while len(rows) > 1 and not any(rows[-1]):
            del rows[-1]  # like the registry's snapshot: no trailing empty epochs
        self.timeline.epoch_rows = [dict(zip(EPOCH_FIELDS, row)) for row in rows]
        if delays is not None and self._delay_idx != len(delays):
            raise SimulatorError(
                f"span stream and delay log are misaligned: {self._delay_idx} "
                f"messages consumed, {len(delays)} delays available"
            )
        return self.timeline

    # -- sync windows --------------------------------------------------------

    def _window(self, cause_kind: str, ident: int, codes) -> None:
        """Fold the window ``codes`` has just entered, through its "end".

        The sync wrappers emit the window's marker event (``acquire``,
        ``release`` or ``barrier_arrive``) first; it names the acting
        processor and picks the sums its messages land in. A window
        without one places nothing on the timeline, but its messages
        still count and still pass the delay-log cursor over. After
        ``barrier_complete`` the sums are per exiting client.
        """
        costs, delays = self.costs, self._delays
        message_s, byte_s = costs.message_s, costs.byte_s
        next_ev, next_msg = self._next_ev, self._next_msg
        MSG, EV, END = _MSG, _EV, _END
        messages = data = ctrl = faults = 0
        marker = proc = grantor = sums_at = per = None
        sums = [0.0] * 6
        close_s = ser_s = rtx_s = m_ser = m_rtx = 0.0
        for code in codes:
            if code >= MSG:
                src, dst, d, e = next_msg()
                if code & 1:
                    messages += 1
                data += d
                ctrl += e
                if delays is None:
                    cost = message_s + (d + e) * byte_s
                else:
                    cost, m_ser, m_rtx = self._next_delay()
                    if marker == _RELEASE:  # subtracted one by one: kept to the bit
                        cost = cost - m_ser - m_rtx
                    else:
                        cost -= m_ser + m_rtx
                if per is not None:
                    client = src if _CLIENT_IS_SRC[code] else dst
                    slot = per.setdefault(client, [0.0, 0.0, 0.0, 0.0])
                    # BARRIER_EXIT / bare notices, or the client's pulls
                    slot[_PULL_SLOT[code]] += cost
                    slot[2] += m_ser
                    slot[3] += m_rtx
                elif sums_at is not None:
                    ser_s += m_ser
                    rtx_s += m_rtx
                    sums[sums_at[code]] += cost
                    at = _GRANTOR_AT[code]
                    if at is not None:
                        grantor = dst if at else src
            elif code == EV:
                row = next_ev()
                shape = row[0]
                if shape == _DIFF_CREATE:
                    if marker is not None and per is None:
                        close_s += costs.diff_create_s
                elif shape == _DIFF_APPLY:
                    seconds = row[_COUNT_AT[shape]] * costs.diff_apply_s
                    if per is not None:
                        per.setdefault(row[1], [0.0, 0.0, 0.0, 0.0])[1] += seconds
                    elif marker == _ACQUIRE:
                        sums[_DIFF] += seconds
                elif shape == _PAGE_FAULT:
                    faults += 1
                elif marker is None:
                    if shape in _WINDOW_SUMS:
                        marker, proc = shape, row[1]
                        sums_at = _WINDOW_SUMS[shape]
                        self._ensure_compute(proc)
                elif shape == _COMPLETE and marker == _ARRIVE and per is None:
                    episode = self._barrier_arrive(ident, proc, close_s, sums, ser_s, rtx_s)
                    per = {p: [0.0, 0.0, 0.0, 0.0] for p, _, _ in episode}
            elif code == END:
                break
            elif code == _EPOCH:
                # After the window's last message: what it sent belongs
                # to the episode this closes.
                self._account(cause_kind, messages, data, ctrl, faults)
                messages = data = ctrl = faults = 0
                self._erows.append([0] * _ROW_WIDTH)
        self._account(cause_kind, messages, data, ctrl, faults)
        if marker == _ACQUIRE:
            self._acquire(ident, proc, grantor, close_s, sums, ser_s, rtx_s)
        elif marker == _RELEASE:
            self._release(ident, proc, close_s, sums[_FLUSH], ser_s, rtx_s)
        elif per is not None:
            self._complete_barrier(ident, self._arrivals.pop(ident), per)
        elif marker is not None:
            self._barrier_arrive(ident, proc, close_s, sums, ser_s, rtx_s)

    def _acquire(self, lock, proc, grantor, close_s, sums, ser_s, rtx_s) -> None:
        flush_s, transfer_s, grant_s, page_s, diff_s, _ = sums
        arrival = self.clock[proc] + close_s + flush_s + transfer_s
        available = arrival
        serial_s = 0.0
        pred = self.prev[proc]
        flow_src: Optional[int] = None
        if grantor is not None and grantor != proc:
            release = self._release_point.get(lock)
            if release is not None:
                available = max(arrival, release[0])
                serial_s = available - arrival
                if serial_s > 0.0:
                    pred = flow_src = release[1]
        lock_s = transfer_s + grant_s
        buckets = {}
        if close_s:
            buckets["diff_create"] = close_s
        if flush_s:
            buckets["flush"] = flush_s
        if lock_s:
            buckets["lock_transfer"] = lock_s
        if serial_s:
            buckets["lock_serialization"] = serial_s
        if page_s:
            buckets["page_fetch"] = page_s
        if diff_s:
            buckets["diff_fetch"] = diff_s
        sid = self._extend(
            proc, "acquire", available + grant_s + page_s + diff_s + ser_s + rtx_s, pred,
            buckets, f"acquire L{lock}",
            {"lock": lock, "grantor": grantor if grantor is not None else proc}, ser_s, rtx_s,
        )
        if flow_src is not None:
            self.timeline.flows.append((flow_src, sid))
        self._ptr[proc] += 1
        self._laid[proc] = False

    def _release(self, lock, proc, close_s, flush_s, ser_s, rtx_s) -> None:
        end = self.clock[proc] + close_s + flush_s + ser_s + rtx_s
        buckets = {}
        if close_s:
            buckets["diff_create"] = close_s
        if flush_s:
            buckets["flush"] = flush_s
        sid = self._extend(
            proc, "release", end, self.prev[proc], buckets, f"release L{lock}", {"lock": lock},
            ser_s, rtx_s,
        )
        self._release_point[lock] = (end, sid)
        self._ptr[proc] += 1
        self._laid[proc] = False

    def _barrier_arrive(self, bid, proc, close_s, sums, ser_s, rtx_s):
        """Place ``proc``'s arrival; returns the episode so far."""
        flush_s, arrival_s = sums[_FLUSH], sums[_ARRIVAL]  # BARRIER_ARRIVAL (+ piggyback)
        t_arrive = self.clock[proc] + close_s + flush_s + arrival_s + ser_s + rtx_s
        buckets = {}
        if close_s:
            buckets["diff_create"] = close_s
        if flush_s:
            buckets["flush"] = flush_s
        if arrival_s:
            buckets["barrier_transfer"] = arrival_s
        arrive_sid = self._extend(
            proc, "barrier_arrive", t_arrive, self.prev[proc], buckets,
            f"barrier {bid} arrive", {"barrier": bid}, ser_s, rtx_s,
        )
        episode = self._arrivals.setdefault(bid, [])
        episode.append((proc, t_arrive, arrive_sid))
        self._ptr[proc] += 1
        self._laid[proc] = False
        return episode

    def _complete_barrier(
        self, bid: int, episode: List[Tuple[int, float, int]], per: Dict[int, List[float]]
    ) -> None:
        """Place every client's wait and exit; ``per`` holds its exit
        costs as [barrier_transfer, diff_fetch, serialization,
        retransmit] seconds."""
        completion = max(t for _, t, _ in episode)
        last_sid = next(sid for _, t, sid in episode if t == completion)
        arrivals = [t for _, t, _ in episode]
        self.timeline.barrier_imbalance_s += completion - sum(arrivals) / len(arrivals)
        self.timeline.barrier_episodes += 1
        spans = self.timeline.spans
        for proc, t_arrive, arrive_sid in episode:
            wait = completion - t_arrive
            if wait > 0.0:
                spans.append(Span(
                    len(spans), proc, "barrier_wait", t_arrive, completion, arrive_sid,
                    {"barrier_wait": wait}, f"barrier {bid} wait",
                ))
            transfer_s, fetch_s, ser_s, rtx_s = per[proc]
            buckets = {}
            if transfer_s:
                buckets["barrier_transfer"] = transfer_s
            if fetch_s:
                buckets["diff_fetch"] = fetch_s
            self.clock[proc] = completion  # nobody leaves before the last arrival
            exit_sid = self._extend(
                proc, "barrier_exit", completion + transfer_s + fetch_s + ser_s + rtx_s, last_sid,
                buckets, f"barrier {bid} exit", {"barrier": bid}, ser_s, rtx_s,
            )
            if arrive_sid != last_sid:
                self.timeline.flows.append((last_sid, exit_sid))


def timeline_from_records(
    records: SpanRecords,
    compiled,
    n_procs: int,
    costs: Optional[SpanCosts] = None,
    app: str = "",
    protocol: str = "",
    delays: Optional[Sequence[Tuple[float, float, float]]] = None,
) -> SpanTimeline:
    """Assemble a timeline from a :class:`SpanProbe` record stream.

    ``delays`` is the measured per-message delay log of a timed run
    (``NetworkTiming.delay_log``, one ``(total, serialization,
    retransmit)`` triple per "msg" record in stream order); when given,
    message weights come from the simulated network instead of the
    synthetic ``costs`` charge; a log that is not one entry per message
    raises :class:`~repro.common.errors.SimulatorError`. Builds with the
    cyclic collector paused: a timeline is tens of thousands of spans
    and holds no reference cycle.
    """
    from repro.hb.skeleton import sync_compute_profile

    with gc_paused():
        profile = sync_compute_profile(compiled, n_procs)
        costs = costs or SpanCosts.ethernet_1992()
        return SpanBuilder(records, profile, costs, n_procs, app, protocol, delays).build()


def build_span_timeline(
    trace,
    protocol,
    page_size: int = 4096,
    config=None,
    costs: Optional[SpanCosts] = None,
    link_model=None,
):
    """Run ``trace`` under ``protocol`` with a SpanProbe and reconstruct.

    Returns ``(result, timeline)``: the instrumented
    :class:`~repro.simulator.results.SimulationResult` (metrics snapshot
    included, for reconciliation) and the :class:`SpanTimeline`. Pass a
    :class:`~repro.network.link.LinkModel` (or set it on ``config``) to
    run timed: the timeline's message weights are then the link's
    measured delays — serialization queueing, seeded jitter, and
    retransmit penalties included — instead of the synthetic cost
    model, and ``result.timing`` carries the timed-run report.
    """
    from repro.config import SimConfig
    from repro.simulator.engine import Engine

    if config is None:
        config = SimConfig(n_procs=trace.n_procs, page_size=page_size)
    else:
        config = config.with_page_size(page_size)
    if link_model is not None:
        config = config.with_options(link_model=link_model)
    if costs is None and config.link_model is not None:
        costs = SpanCosts.from_link(config.link_model)
    probe = SpanProbe()
    compiled = trace.compiled(config.page_size)
    engine = Engine(trace, config, protocol, compiled=compiled, probe=probe)
    try:
        result = engine.run()
    finally:
        probe.close()
    delays = getattr(probe, "link_delays", None)
    timeline = timeline_from_records(
        probe.records, compiled, config.n_procs, costs, trace.meta.app, result.protocol, delays
    )
    return result, timeline


def to_chrome_trace(timeline: SpanTimeline) -> Dict[str, Any]:
    """Render a timeline as Chrome trace-event JSON (Perfetto-loadable).

    One process (pid 0) with one thread per simulated processor; spans
    become complete ("X") events with microsecond timestamps and the
    stall buckets in ``args``; flow edges become "s"/"f" pairs so
    Perfetto draws the message-causality arrows.
    """
    def event(ph: str, tid: int, name: str, **rest: Any) -> Dict[str, Any]:
        return {"ph": ph, "pid": 0, "tid": tid, "name": name, **rest}

    title = f"{timeline.app} under {timeline.protocol}"
    events = [event("M", 0, "process_name", args={"name": title})]
    for proc in range(timeline.n_procs):
        events.append(event("M", proc, "thread_name", args={"name": f"proc {proc}"}))
    for span in timeline.spans:
        args: Dict[str, Any] = {
            category: round(seconds * 1e6, 3)
            for category, seconds in span.buckets.items()
        }
        if span.args:
            args.update(span.args)
        events.append(
            event(
                "X", span.proc, span.label, cat=span.kind, ts=round(span.start * 1e6, 3),
                dur=round(span.duration * 1e6, 3), args=args,
            )
        )
    spans = timeline.spans
    for flow_id, (src_sid, dst_sid) in enumerate(timeline.flows):
        src, dst = spans[src_sid], spans[dst_sid]
        start = event("s", src.proc, "hb", cat="flow", id=flow_id, ts=round(src.end * 1e6, 3))
        finish = event("f", dst.proc, "hb", cat="flow", id=flow_id, ts=round(dst.start * 1e6, 3))
        events += (start, {"ph": "f", "bp": "e", **finish})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
