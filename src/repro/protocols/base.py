"""Abstract protocol machinery shared by the lazy and eager families.

A :class:`Protocol` owns all per-processor state (page tables), the
network, and the synchronization managers — the tables built by the loop
that reads them (:meth:`Protocol.bind_interpreter`, or a tape's
``bind_batch_plan``). The trace-driven engine calls the public entry
points (:meth:`read`, :meth:`write`, :meth:`acquire`,
:meth:`release`, :meth:`barrier`); subclasses implement the family-
specific hooks.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ProtocolError
from repro.common.types import BarrierId, LockId, PageId, ProcId
from repro.hb.skeleton import PricedTape
from repro.memory.page import PageEntry, PageState, PageTable
from repro.network.message import MessageKind
from repro.network.network import Network
from repro.obs.probe import NULL_PROBE, Probe, is_stock_staging
from repro.obs.spans import SpanProbe, SpanRecords
from repro.config import SimConfig
from repro.sync.barrier import BarrierMaster
from repro.sync.lock_manager import LockDirectory


def certify_replay(protocol: "Protocol") -> Tuple[str, Optional[str]]:
    """Which engine loop may replay ``protocol``, and why not a faster one.

    Decided from what the run observes and from one fact the protocol's
    class declares — nothing a user sets. Returns
    ``(execution_path, decline_reason)``:

    - ``"per_event"``: the interpreter, the only loop that calls hooks.
      Exactly three reasons, in this order: a run that observes values
      (``record_values``); any class that has not set
      ``replay_certified = True`` in its own body
      (``uncertified_class``); and a run that watches individual
      messages or any other hook — ``subclassed_probe``, a probe that is
      neither a stock staging :class:`~repro.obs.probe.RecordingProbe`
      nor a stock :class:`~repro.obs.spans.SpanProbe`
      (:func:`~repro.obs.probe.is_stock_staging`), e.g. a subclass
      overriding ``on_message``.
    - ``"tape"``: no individual message is watched, so the run is
      replayed from precomputed records (lazy family: the kernels over
      the sync skeleton, sending as the hooks do and charging each diff
      fetch in one
      :meth:`Network.apply_tape <repro.network.network.Network.apply_tape>`
      bulk update, or one fold over the cell's kept priced tape once a
      run of it writes nothing; eager family: one walk of the policy's
      steps, :func:`~repro.protocols.eager_base.walk_eager_steps` — a
      fold over its memoized priced tape when the run writes nothing).
      A stock probe's metrics rows and a timed run's send log are fed
      from the same records; event sinks and a span probe get what the
      kernels or the walker write from them, or the record stream the
      cell's record keeps (:meth:`observe_on_tape`). The reason is None.

    The engine dispatches on the path; the pair goes into the run's
    manifest. (``reference`` is the test oracle's path,
    ``tests/reference_oracle.py::ReferenceEngine``, never chosen here.)
    """
    if protocol.config.record_values:
        return "per_event", "record_values"
    if not type(protocol).__dict__.get("replay_certified", False):
        return "per_event", "uncertified_class"
    if protocol._obs and not protocol._probe_fast:
        return "per_event", "subclassed_probe"
    return "tape", None


class ProcState:
    """Per-processor state common to every protocol."""

    __slots__ = ("proc", "pages")

    def __init__(self, proc: ProcId):
        self.proc = proc
        self.pages = PageTable(proc)


class Protocol(abc.ABC):
    """Base class of the four coherence protocols."""

    #: Short name used by the registry and in reports ("LI", "EU", ...).
    name: str = "abstract"
    #: True for the lazy (LRC) family.
    lazy: bool = False
    #: True for update protocols, False for invalidate.
    update: bool = False
    #: Set True in a class's *own body* to declare that the kernels and
    #: tapes replay it exactly. Read from the class ``__dict__``, never
    #: inherited: a subclass is interpreted until it vouches for itself.
    replay_certified: bool = False
    #: The class's own counters, beyond the miss and diff counts every
    #: protocol keeps, that a result reports (``SimulationResult.counters``,
    #: in this order). A class adds its own.
    result_counters: Tuple[str, ...] = ()
    #: Per-processor state, one entry per processor once a loop that
    #: reads page tables has built them (:meth:`_bind_tables`); a fold
    #: over a priced tape has none.
    procs: Sequence[ProcState] = ()

    def __init__(self, config: SimConfig):
        self.config = config
        self.n_procs = config.n_procs
        self.page_size = config.page_size
        self.costs = config.cost_model
        self.network = Network(config.n_procs, config.cost_model)
        # Counters reported alongside network stats.
        self.cold_misses = 0
        self.invalid_misses = 0
        self.diffs_fetched = 0
        self.diff_bytes_fetched = 0
        # Telemetry: the null recorder until a probe is attached. Every
        # emission site below guards on a cached flag, so a run without
        # telemetry pays one boolean check on the (rare) miss/sync paths
        # and nothing at all on ordinary hits. ``_obs`` gates accounting
        # (attribution context, miss staging); ``_obs_events`` gates
        # structured-event construction, which metrics-only probes (no
        # sinks) skip entirely.
        self.probe: Probe = NULL_PROBE
        self._obs = False
        self._obs_events = False
        #: Where emission sites send events: the probe's ``emit``, or on
        #: a tape run the record stream it writes.
        self._emit = NULL_PROBE.emit
        self._probe_fast = False
        self._span = self._log = self._tap = None
        # Set by a tape replay (bind_batch_plan): nothing there can
        # observe page contents or dirty words — record_values
        # forces the per-event path, which alone maintains them — so the
        # kernels keep page *state* and the ledger only.
        self._value_free = False

    # -- the state each loop reads ------------------------------------------
    #
    # A protocol is built with its config, ledger and counters only. The
    # tables a loop reads are built by that loop before its first event:
    # bind_interpreter for the per-event hooks (Engine's interpreter and
    # the test oracle; the interpreter then binds a lazy protocol's
    # skeleton, as a tape replay does), bind_batch_plan for a tape replay
    # (the lazy kernels' subset, over the plan's store, planner and
    # records), and nothing for a fold over a priced tape, which reads
    # only the ledger.

    def bind_interpreter(self) -> None:
        """Build what the per-event hooks read: the page tables, the lock
        and barrier directories and the family's own bookkeeping."""
        self._bind_tables()
        self.locks = LockDirectory(self.n_procs)

    def _bind_tables(self) -> None:
        """The per-processor page tables and the barrier directory: what
        the interpreter and the lazy tape kernels both read."""
        self.procs = [ProcState(p) for p in range(self.n_procs)]
        self.barriers = BarrierMaster(self.n_procs)

    def attach_probe(self, probe: Probe) -> None:
        """Install ``probe`` on this protocol and its network.

        Called by the engine before replay; attaching the null probe is
        a supported no-op (the guards stay off).
        """
        self.probe = probe
        self._obs = probe.enabled
        self._obs_events = probe.enabled and probe.events
        self._emit = probe.emit
        # What certify_replay reads: a stock RecordingProbe or SpanProbe
        # may ride the tape (the kernels stage its rows themselves); any
        # other live probe gets every hook called, which only the
        # interpreter does.
        self._probe_fast = is_stock_staging(probe) or is_stock_staging(probe, SpanProbe)
        if isinstance(probe, SpanProbe):
            # Hooks write its records in place: never a cell's kept
            # stream, which an earlier reused run left it viewing.
            probe.records = probe.records.writable()
        self.network.attach_probe(probe)

    def observe_on_tape(self, stream: Optional[SpanRecords], emit) -> None:
        """Set up a tape run under a stock probe that takes events (sinks,
        or a span probe): every hook is bypassed and the metrics rows are
        staged inline. The events go to ``emit`` and the windows,
        messages and epoch marks to ``stream`` — the probe's own emit
        and records, or a record stream being written
        (:meth:`Engine._use_record
        <repro.simulator.engine.Engine._use_record>`). With
        neither, the run emits nothing: the cell's stream is kept
        already, and the engine hands the probe that."""
        self._span = stream
        self._obs_events = emit is not None
        self._emit = emit if emit is not None else NULL_PROBE.emit
        self.network.attach_probe(self.probe, stages=True)
        self._bind_tap()

    def record_sends(self, log) -> None:
        """Record every message of this run into ``log`` (a ``SendLog``):
        ``Network.send``'s through its hook, a bulk charge's (a lazy diff
        fetch, the eager walk) through the tap."""
        self._log = log
        self._bind_tap()

    def _bind_tap(self) -> None:
        """``_tap``, where ``Network.send`` hands each message it charges
        and a bulk charge (a lazy diff fetch, the eager walk) makes one
        ``Network.send``-shaped call per message — the record stream,
        the send log, both, or None."""
        span = self._span.sender(self.costs) if self._span is not None else None
        log = self._log.send if self._log is not None else None
        if span is None or log is None:
            self._tap = span or log
        else:

            def tap(kind, src, dst, payload_bytes=0, control_bytes=0):
                span(kind, src, dst, payload_bytes, control_bytes)
                log(kind, src, dst, payload_bytes, control_bytes)

            self._tap = tap
        self.network.record_sends(self._tap)

    def _next_epoch(self) -> None:
        """A barrier episode completed on the tape: its mark in the record
        stream being written, then the probe's stock epoch bump."""
        if self._span is not None:
            self._span.epoch()
        self.probe._next_epoch()

    def _fold(self, tape: PricedTape) -> None:
        """A run as one fold over its priced tape — either family's, one
        :meth:`_fold_epoch` per barrier epoch. The tape's final counters
        (histograms copied) are the run's."""
        for epoch in tape.epochs:
            self._fold_epoch(epoch)
        for name, value in tape.counters.items():
            setattr(self, name, dict(value) if isinstance(value, dict) else value)

    def _fold_epoch(self, epoch: tuple) -> None:
        """One epoch of a priced tape: its deltas go into the ledger.
        Under a stock probe its new rows are created in first-use order
        — the sync wrappers' order — each row is charged its sum, and a
        completed epoch advances the probe's, so the metrics snapshot
        matches the per-message path. A completed epoch then closes the
        window of the arrival that completed it in a record stream being
        written, after the charge and the epoch mark."""
        deltas, rows, complete = epoch
        self.network.apply_tape(deltas)
        if self._obs:
            probe = self.probe
            for cause, messages, data, control, faults in rows:
                row = probe._cause_row(*cause)
                row[0] += messages
                row[1] += data
                row[2] += control
                row[3] += faults
            if complete:
                self._next_epoch()
        if complete and self._span is not None:
            self._span.end()

    # -- helpers -----------------------------------------------------------

    def entry(self, proc: ProcId, page: PageId) -> PageEntry:
        return self.procs[proc].pages.entry(page)

    def page_manager(self, page: PageId) -> ProcId:
        """The page's statically assigned manager/home processor."""
        return page % self.n_procs

    # -- engine entry points -----------------------------------------------

    def read(self, proc: ProcId, page: PageId, words: Sequence[int]) -> List[int]:
        """Perform a read access; returns the values observed."""
        entry = self.procs[proc].pages.entry(page)
        if entry.state is not PageState.VALID:
            self._service_miss(proc, page, entry)
        get = entry.page.words.get
        return [get(w, 0) for w in words]

    def read_touch(self, proc: ProcId, page: PageId) -> None:
        """A read access whose observed values nobody consumes.

        Identical protocol effects to :meth:`read` (miss servicing and
        all accounting) without materializing the value list — the engine
        uses this when ``record_values`` is off, i.e. for every
        benchmark and sweep run. Protocols that hook reads must override
        both entry points.
        """
        entry = self.procs[proc].pages.entry(page)
        if entry.state is not PageState.VALID:
            self._service_miss(proc, page, entry)

    def write(self, proc: ProcId, page: PageId, words: Sequence[int], token: int) -> None:
        """Perform a write access, tagging every written word with ``token``."""
        table = self.procs[proc].pages
        entry = table.entry(page)
        if entry.state is not PageState.VALID:
            self._service_miss(proc, page, entry)
        if not entry.dirty_words:
            table.mark_dirty(page, entry)
        page_words = entry.page.words
        dirty_words = entry.dirty_words
        for word in words:
            page_words[word] = token
            dirty_words[word] = token
        self._note_write(proc, page, entry)

    def acquire(self, proc: ProcId, lock: LockId) -> None:
        """Acquire ``lock`` on ``proc`` (and open its probe window).

        Span reconstruction contract (:mod:`repro.obs.spans`): the
        acquire/release/barrier wrappers bracket *all* of an operation's
        probe traffic — the sync event, every message the operation
        sends, and any nested diff/fetch events — between one
        ``probe.begin(cause, id)`` and its matching ``probe.end()``, in
        emission order; ``advance_epoch()`` fires inside the completing
        barrier's window, after ``barrier_complete``. The post-hoc span
        builder parses windows from exactly this bracketing, so protocol
        implementations must keep sync-time emission inside their
        ``_on_*`` hooks (called here, inside the window) rather than
        emitting sync traffic from unbracketed code paths.
        """
        obs = self._obs
        if obs:
            probe = self.probe
            probe.begin("lock", lock)
            if self._obs_events:
                self._emit("acquire", proc=proc, lock=lock)
        self._on_acquire(proc, lock)
        self.locks.record_acquire(proc, lock)
        if obs:
            probe.end()

    def release(self, proc: ProcId, lock: LockId) -> None:
        obs = self._obs
        if obs:
            probe = self.probe
            probe.begin("lock", lock)
            if self._obs_events:
                self._emit("release", proc=proc, lock=lock)
        self._on_release(proc, lock)
        self.locks.record_release(proc, lock)
        if obs:
            probe.end()

    def barrier(self, proc: ProcId, barrier: BarrierId) -> None:
        """Barrier arrival; the family hook sends the arrival message."""
        obs = self._obs
        if obs:
            probe = self.probe
            probe.begin("barrier", barrier)
            if self._obs_events:
                self._emit("barrier_arrive", proc=proc, barrier=barrier)
        self._on_barrier_arrive(proc, barrier)
        if self.barriers.record_arrival(proc, barrier):
            if self._obs_events:
                self._emit("barrier_complete", proc=proc, barrier=barrier)
            self._on_barrier_complete(barrier)
            if obs:
                # Exit traffic above belongs to the episode it closes;
                # everything after is the next epoch's. advance_epoch
                # zeroes staged rows in place, so the row end() restores
                # below stays live.
                probe.advance_epoch()
        if obs:
            probe.end()

    def finish(self) -> None:
        """Called once after the last trace event (default: no-op)."""

    # -- miss handling --------------------------------------------------------

    def _service_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        if entry.state == PageState.MISSING:
            self.cold_misses += 1
            cold = True
        elif entry.state == PageState.INVALID:
            self.invalid_misses += 1
            cold = False
        else:
            raise ProtocolError(f"miss on VALID page {page} at p{proc}")
        if self._obs:
            if self._value_free:  # a tape replay: the hook is bypassed too
                self.probe._seg_row[3] += 1
                if self._obs_events:
                    self._emit("page_fault", proc=proc, page=page, cold=int(cold))
            else:
                self.probe.page_fault(proc, page, cold)
        self._handle_miss(proc, page, entry)
        if entry.state != PageState.VALID:
            raise ProtocolError(
                f"{self.name}: miss handler left page {page} {entry.state} at p{proc}"
            )

    def _fetch_page_copy(
        self,
        proc: ProcId,
        page: PageId,
        entry: PageEntry,
        server: ProcId,
        request_kind: MessageKind = MessageKind.PAGE_REQUEST,
        reply_kind: MessageKind = MessageKind.PAGE_REPLY,
        forward: Optional[ProcId] = None,
    ) -> None:
        """Fetch a full page copy from ``server`` into ``entry``.

        ``forward`` routes the request through the directory manager first
        (the eager three-message miss). Local dirty words survive the
        fetch: a multiple-writer protocol never loses the fetching
        processor's concurrent modifications.
        """
        if forward is not None:
            self.network.send(request_kind, proc, forward)
            self.network.send(MessageKind.PAGE_FORWARD, forward, server)
        else:
            self.network.send(request_kind, proc, server)
        self.network.send(
            reply_kind,
            server,
            proc,
            payload_bytes=self.costs.page_bytes(self.page_size),
        )
        if not self._value_free:
            server_entry = self.procs[server].pages.lookup(page)
            words: Dict[int, int] = dict(server_entry.page.words) if server_entry else {}
            words.update(entry.dirty_words)
            entry.page.words = words
        entry.state = PageState.VALID
        if self._obs_events:
            self._emit(
                "page_fetch",
                proc=proc,
                page=page,
                server=server,
                bytes=self.costs.page_bytes(self.page_size),
            )

    # -- family-specific hooks ---------------------------------------------

    @abc.abstractmethod
    def _handle_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        """Bring ``page`` to VALID at ``proc``, charging the network."""

    @abc.abstractmethod
    def _on_acquire(self, proc: ProcId, lock: LockId) -> None:
        """Consistency + transfer actions of a lock acquire."""

    @abc.abstractmethod
    def _on_release(self, proc: ProcId, lock: LockId) -> None:
        """Consistency actions of a lock release."""

    @abc.abstractmethod
    def _on_barrier_arrive(self, proc: ProcId, barrier: BarrierId) -> None:
        """Consistency actions at barrier arrival (before the arrival message)."""

    @abc.abstractmethod
    def _on_barrier_complete(self, barrier: BarrierId) -> None:
        """Actions when the last processor arrives (exit messages)."""

    def _note_write(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        """Hook invoked after every write (default: nothing)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_procs={self.n_procs}, page_size={self.page_size})"
