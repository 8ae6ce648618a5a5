"""Lazy release consistency: machinery shared by LI, LU, LH and HLRC (§4).

Execution is divided into intervals; every special access closes the
current interval (finalizing one diff per modified page) and begins a new
one. Write notices travel piggybacked on lock-grant and barrier messages,
covering exactly the intervals the receiver's vector timestamp shows it
lacks; releases exchange no messages at all. Diffs are pulled from their
creators — LI at the next access miss, LU immediately on notice receipt —
and applied in happened-before order.

Both loops replay the trace's happened-before skeleton
(:func:`~repro.hb.skeleton.build_skeleton`): its interval store holds
every interval and diff of the run, and one sync record per special
access carries the close, the merged vector timestamps and the notice
batches. The interpreter's hooks and the tape kernels call the same
bodies on those records, and plan fetches with the memoized
:class:`~repro.hb.index.FetchPlanner` over that store. The test oracle,
``tests/reference_oracle.py``, states the sync rules again (closes,
clock merges, the notice gap) and the fetch rules as per-fetch scans
over ``intervals_of`` and pairwise ``precedes``, the way §4.3 words
them; the equivalence suite pins every loop to it field by field.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.types import BarrierId, LockId, PageId, ProcId
from repro.common.vector_clock import VectorClock
from repro.hb.interval import Interval, IntervalId
from repro.hb.skeleton import PriceRecorder, PricedTape
from repro.memory.page import PageEntry, PageState
from repro.network.message import MessageKind
from repro.obs.probe import MISS_CAUSE
from repro.protocols.base import Protocol
from repro.config import SimConfig
from repro.trace.runs import R_ACQUIRE, R_RELEASE, R_TOUCH

#: Request/reply kinds for update-protocol diff pulls, hoisted off the
#: sync paths (tuple construction is visible at 1M+ events/s).
_ACQUIRE_PULL_KINDS = (MessageKind.ACQUIRE_DIFF_REQUEST, MessageKind.ACQUIRE_DIFF_REPLY)
_BARRIER_PULL_KINDS = (MessageKind.BARRIER_UPDATE_REQUEST, MessageKind.BARRIER_UPDATE)


class LazyProcState:
    """Per-processor LRC state."""

    __slots__ = ("vc", "pending")

    def __init__(self, vc: VectorClock):
        #: Vector timestamp over *closed* intervals; own entry = index of
        #: this processor's most recently closed interval (-1 initially:
        #: every processor starts from one shared zero clock, which is
        #: immutable like every clock).
        self.vc = vc
        #: Write notices received but not yet turned into applied diffs,
        #: grouped by page: page -> set of interval ids, each the
        #: store's own ``(creator, index)`` object (never a copy).
        self.pending: Dict[PageId, Set[IntervalId]] = {}


class LazyProtocol(Protocol):
    """Common LRC implementation; the protocols differ only in how notices
    are consumed (:meth:`_receive`, LU's :meth:`_after_notices`)."""

    lazy = True
    result_counters = (
        "intervals_closed",
        "notices_sent",
        "retained_diff_bytes",
        "peak_retained_diff_bytes",
        "gc_collected_bytes",
        "gc_runs",
    )

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.intervals_closed = 0
        self.notices_sent = 0
        # Diff-retention accounting (LRC's memory cost; §5.1 assumes
        # infinite memory, the optional barrier-time GC reclaims).
        self.retained_diff_bytes = 0
        self.peak_retained_diff_bytes = 0
        self.gc_collected_bytes = 0
        self.gc_runs = 0
        # Wire sizes that never change within a run, hoisted off the
        # per-acquire/per-barrier paths.
        self._vc_bytes = self.costs.vclock_bytes(config.n_procs)
        self._notice_bytes_each = self.costs.write_notice_bytes
        self._fetch_header = (
            self.costs.header_bytes if self.costs.count_header_in_data else 0
        )
        # Distributions of Table 1's m (modifiers per miss) and h
        # (modifiers per eager pull): value -> occurrence count.
        self.miss_m_histogram: Dict[int, int] = {}
        self.pull_h_histogram: Dict[int, int] = {}
        #: Set by :meth:`record_priced`: this tape run prices itself.
        self._recording = False
        #: Set by :meth:`fold_priced`: the cell's kept priced tape, which
        #: this tape run folds instead of running the kernels.
        self._priced: Optional[PricedTape] = None

    def bind_skeleton(self, plan) -> None:
        """Bind what both loops replay of ``plan``, a
        :class:`~repro.hb.skeleton.BatchPlan`: the skeleton's fully
        populated interval store, the plan's fetch planner for this
        config's cost model, and the skeleton's sync records, one per
        special access in trace order (:meth:`_next_record`)."""
        self.store = plan.store
        self._planner = plan.planner_for(self.costs, self.config.skip_overwritten_diffs)
        self._next_record = iter(plan.skeleton.records).__next__

    def _bind_tables(self) -> None:
        """The base tables, each processor's clock and pending notices,
        and the retention log: what the hooks and the tape kernels both
        read."""
        super()._bind_tables()
        zero = VectorClock.zero(self.n_procs)
        self.lazy_state = [LazyProcState(zero) for _ in range(self.n_procs)]
        #: The retention log, per page in interval-close order.
        self._live_by_page: Dict[PageId, List[Tuple[Interval, int]]] = {}

    # -- interval management -----------------------------------------------

    def _drain(self, proc: ProcId) -> None:
        """The interpreter's share of a close: the open interval's writes
        are the skeleton's diffs already, so its dirty words are cleared."""
        for entry in self.procs[proc].pages.drain_dirty():
            entry.clear_dirty()

    def _closed(
        self, proc: ProcId, index: int, vc: VectorClock, interval: Optional[Interval]
    ) -> None:
        """A sync record's close, on either loop: ``proc``'s clock
        becomes ``vc``; ``interval`` (None: it modified nothing) enters
        the retention log, per page for the GC; its events; then
        :meth:`_on_close`."""
        self.lazy_state[proc].vc = vc
        self.intervals_closed += 1
        if interval is not None:
            costs = self.costs
            live = self._live_by_page
            retained = self.retained_diff_bytes
            for page, diff in interval.diffs.items():
                wire = diff.wire_bytes(costs)
                retained += wire
                page_live = live.get(page)
                if page_live is None:
                    live[page] = page_live = []
                page_live.append((interval, wire))
            self.retained_diff_bytes = retained
            if retained > self.peak_retained_diff_bytes:
                self.peak_retained_diff_bytes = retained
        if self._obs_events:
            self._emit_interval_close(proc, index, interval)
        if interval is not None:
            self._on_close(proc, interval)

    def _on_close(self, proc: ProcId, interval: Interval) -> None:
        """Hook for every closed interval that modified something, after
        its events (HLRC flushes to the homes here)."""

    def _emit_interval_close(self, proc: ProcId, index: int, interval: Optional[Interval]) -> None:
        """Telemetry for one interval close (probe-enabled runs only)."""
        emit = self._emit
        costs = self.costs
        diffs = interval.diffs if interval is not None else {}
        total = 0
        for page, diff in diffs.items():
            wire = diff.wire_bytes(costs)
            total += wire
            emit("diff_create", proc=proc, interval=index, page=page, bytes=wire)
        emit("interval_close", proc=proc, interval=index, pages=len(diffs), bytes=total)

    def _drop_retained(self, interval: Interval, pages: Iterable[PageId]) -> None:
        """Forget retained diffs of ``interval`` for ``pages`` (HLRC flushes)."""
        live = self._live_by_page
        for page in pages:
            page_live = live.get(page, ())
            # The flushed diff was appended by this interval's close,
            # so it sits at (or near) the end of the page's log.
            for k in range(len(page_live) - 1, -1, -1):
                if page_live[k][0] is interval:
                    self.retained_diff_bytes -= page_live[k][1]
                    del page_live[k]
                    break

    # -- write-notice machinery ----------------------------------------------

    def _receive(
        self,
        proc: ProcId,
        grouped: tuple,
        vc_after: VectorClock,
        pull_kinds: Tuple[MessageKind, MessageKind],
    ) -> None:
        """Record one notice batch at ``proc``: the lazy family's notice
        policy, stated once for every loop (base: track only).

        ``grouped`` pairs each page with its notice interval ids in
        first-occurrence order (:meth:`IntervalStore.group`); ``proc``'s
        clock becomes ``vc_after``, the merge with the sender's.
        ``pull_kinds`` are the request/reply message kinds an update
        protocol uses if it pulls diffs right away (lock-category kinds at
        an acquire, barrier-category kinds at a barrier exit). LI, LH and
        HLRC override this; LU only :meth:`_after_notices`.
        """
        state = self.lazy_state[proc]
        if grouped:
            pending = state.pending
            pending_get = pending.get
            for page, interval_ids in grouped:
                page_pending = pending_get(page)
                if page_pending is None:
                    pending[page] = page_pending = set()
                page_pending.update(interval_ids)
        state.vc = vc_after
        self._after_notices(proc, pull_kinds)

    def _after_notices(self, proc: ProcId, pull_kinds: Tuple[MessageKind, MessageKind]) -> None:
        """Post-batch hook: LU pulls diffs for cached pages here."""

    # -- diff collection -------------------------------------------------------

    def _collect_diffs(
        self,
        proc: ProcId,
        pages: List[PageId],
        request_kind: MessageKind,
        reply_kind: MessageKind,
    ) -> int:
        """Fetch and apply every pending diff of ``pages`` at ``proc``.

        One request/reply pair goes to each *concurrent last modifier*
        (the paper's ``m``/``h`` terms): the hb-maximal modifying
        intervals of each page. A maximal modifier's copy already
        incorporates every hb-earlier modification — it had to service
        its own miss before writing — so it serves an aggregate diff
        covering those too; only pairwise-concurrent modifiers (false
        sharing) force contacting more than one processor. Diffs are
        applied in happened-before order. Returns the number of distinct
        modifiers contacted. The fetch is one run-level plan over the
        faulting pages' memoized page plans (:class:`FetchPlanner`).
        """
        pending = self.lazy_state[proc].pending
        planner = self._planner
        items = []
        for page in pages:
            interval_ids = pending.pop(page, None)
            if interval_ids:
                # The plan key: a sorted tuple of the store's id objects
                # (a tuple is a fraction of a frozenset's size, and the
                # memo keeps every key it sees).
                items.append((page, tuple(sorted(interval_ids))))
        if not items:
            return 0
        obs = self._obs_events
        if len(items) == 1:
            page, interval_ids = items[0]
            run_plan = planner.plan(page, interval_ids)
            plans = (run_plan,)
        else:
            run_plan = planner.plan_run(items)
            plans = run_plan.plans
        by_server = run_plan.by_server
        m = len(by_server)
        value_free = self._value_free
        if value_free:
            # A tape replay (certify_replay): every send below would
            # take the pure-accounting fast path and a server is never
            # its own client — so the whole fetch's ledger updates
            # collapse into one apply_tape call, with the probe's staged
            # row (when attached) updated to match.
            payload = run_plan.total_payload
            header = self._fetch_header
            self.network.apply_tape(
                (
                    (request_kind.slot, m, m * header, 0),
                    (reply_kind.slot, m, payload + m * header, 0),
                )
            )
            if self._obs:
                row = self.probe._seg_row
                row[0] += 2 * m
                row[1] += payload + 2 * m * header
            self.diffs_fetched += run_plan.total_diffs
            self.diff_bytes_fetched += payload
            tap = self._tap
            if obs or tap is not None:
                emit = self._emit
                for server, count, served in by_server:
                    if tap is not None:
                        tap(request_kind, proc, server)
                        tap(reply_kind, server, proc, served)
                    if obs:
                        emit("diff_fetch", proc=proc, server=server, count=count, bytes=served)
        else:
            send = self.network.send
            for server, count, payload in by_server:
                send(request_kind, proc, server)
                send(reply_kind, server, proc, payload_bytes=payload)
                self.diffs_fetched += count
                self.diff_bytes_fetched += payload
                if obs:
                    self._emit(
                        "diff_fetch", proc=proc, server=server, count=count, bytes=payload
                    )
        if value_free and not obs:
            return m
        table = self.procs[proc].pages
        for plan in plans:
            if not value_free:
                entry = table.entry(plan.page)
                words = entry.page.words
                for diff in plan.apply:
                    words.update(diff.words)
                # A concurrent local writer's uncommitted words survive merges.
                if entry.dirty_words:
                    words.update(entry.dirty_words)
            if obs:
                self._emit(
                    "diff_apply", proc=proc, page=plan.page, count=len(plan.apply)
                )
        return m

    # -- access misses ---------------------------------------------------------

    def _handle_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        """§4.3.3: a stale copy needs only diffs; a cold miss also fetches a base copy."""
        if entry.state == PageState.MISSING or not self.config.diff_to_invalid_copy:
            # The page's home serves the base copy (initially zero-filled);
            # with the §4.3.3 optimization ablated, a full page is
            # refetched even though a stale copy exists.
            manager = self.page_manager(page)
            self.network.send(MessageKind.PAGE_REQUEST, proc, manager)
            self.network.send(
                MessageKind.PAGE_REPLY,
                manager,
                proc,
                payload_bytes=self.costs.page_bytes(self.page_size),
            )
        m = self._collect_diffs(
            proc, [page], MessageKind.DIFF_REQUEST, MessageKind.DIFF_REPLY
        )
        self.miss_m_histogram[m] = self.miss_m_histogram.get(m, 0) + 1
        entry.state = PageState.VALID

    # -- notice-bearing sync sends ---------------------------------------------

    def _sync_send(
        self,
        kind: MessageKind,
        notice_kind: MessageKind,
        src: ProcId,
        dst: ProcId,
        n_notices: int,
    ) -> None:
        """One sync hop from ``src`` carrying its timestamp plus notices.

        The shared tail of every notice-bearing synchronization message
        (lock grants, barrier arrivals, barrier exits): bumps
        ``notices_sent`` and sends either one piggybacked message or,
        under the ``piggyback_notices`` ablation, the bare sync message
        followed by a separate ``notice_kind`` message of the matching
        category. Telemetry emissions stay at the call sites — their
        fields differ per hop.
        """
        self.notices_sent += n_notices
        send = self.network.send
        notice_bytes = n_notices * self._notice_bytes_each
        if self.config.piggyback_notices or not n_notices:
            send(kind, src, dst, 0, self._vc_bytes + notice_bytes)
        else:
            send(kind, src, dst, 0, self._vc_bytes)
            send(notice_kind, src, dst, 0, notice_bytes)

    # The three sync exchanges, as the hooks and the tape kernels both
    # send them: only where the notice counts come from differs.

    def _grant(self, proc: ProcId, manager: ProcId, grantor: ProcId, n_notices: int) -> None:
        """A paid acquire's messages. The request and forward hops carry
        the acquirer's timestamp so the grantor can compute the missing
        notices (§4.2); the grant carries them."""
        vc_bytes = self._vc_bytes
        self.network.send(MessageKind.LOCK_REQUEST, proc, manager, 0, vc_bytes)
        self.network.send(MessageKind.LOCK_FORWARD, manager, grantor, 0, vc_bytes)
        if self._obs_events and n_notices:
            self._emit(
                "notices_send",
                proc=grantor,
                dest=proc,
                count=n_notices,
                bytes=n_notices * self._notice_bytes_each,
            )
            self._emit("notices_apply", proc=proc, count=n_notices)
        self._sync_send(MessageKind.LOCK_GRANT, MessageKind.LOCK_NOTICE, grantor, proc, n_notices)

    def _arrive(self, proc: ProcId, master: ProcId, n_notices: int) -> None:
        """A client's barrier arrival: its timestamp plus the notices the
        (running) episode merge does not yet cover."""
        if self._obs_events and n_notices:
            self._emit(
                "notices_send",
                proc=proc,
                dest=master,
                count=n_notices,
                bytes=n_notices * self._notice_bytes_each,
            )
        self._sync_send(
            MessageKind.BARRIER_ARRIVAL, MessageKind.BARRIER_NOTICE, proc, master, n_notices
        )

    def _exit(self, master: ProcId, proc: ProcId, n_notices: int) -> None:
        """``proc``'s barrier exit, sent unless ``proc`` is the master."""
        if self._obs_events and n_notices:
            self._emit("notices_send", proc=master, dest=proc, count=n_notices)
            self._emit("notices_apply", proc=proc, count=n_notices)
        if proc != master:
            self._sync_send(
                MessageKind.BARRIER_EXIT, MessageKind.BARRIER_NOTICE, master, proc, n_notices
            )

    # -- synchronization: the skeleton's records ------------------------------
    #
    # Both loops replay build_skeleton's sync records, one per special
    # access in trace order (repro.hb.skeleton documents their shapes):
    # the hooks below and the _t_* kernels call the same three bodies,
    # which close through _closed, take every notice batch through
    # _receive and send every hop through _grant / _arrive / _exit.

    def _acquired(self, proc: ProcId, record: tuple) -> None:
        """An acquire's record: the close, then the grant and its notices
        unless the reacquire is free (the grantor is ``proc``)."""
        close, grantor, manager, n_notices, grouped, vc_after = record
        self._closed(proc, *close)
        if grantor != proc or not self.config.free_local_lock_reacquire:
            self._grant(proc, manager, grantor, n_notices)
            self._receive(proc, grouped, vc_after, _ACQUIRE_PULL_KINDS)

    def _arrived(self, proc: ProcId, record: tuple) -> Optional[tuple]:
        """A barrier arrival's record: the close, then the arrival hop
        unless ``proc`` is the master. Returns the exits when this
        arrival completes the episode, else None."""
        close, n_to_master, complete = record
        self._closed(proc, *close)
        if n_to_master >= 0:
            self._arrive(proc, self.barriers.master, n_to_master)
        return complete

    def _completed(self, complete: tuple) -> None:
        """A completed episode: each processor's exit and notice batch,
        then the optional GC."""
        master = self.barriers.master
        for proc, (n_notices, grouped, vc_after) in enumerate(complete):
            self._exit(master, proc, n_notices)
            self._receive(proc, grouped, vc_after, _BARRIER_PULL_KINDS)
        if self.config.gc_at_barriers:
            self._collect_garbage()

    def _on_acquire(self, proc: ProcId, lock: LockId) -> None:
        self._drain(proc)
        self._acquired(proc, self._next_record())

    def _on_release(self, proc: ProcId, lock: LockId) -> None:
        """Releases are purely local operations in LRC — no messages (§4.2)."""
        self._drain(proc)
        self._closed(proc, *self._next_record()[0])

    def _on_barrier_arrive(self, proc: ProcId, barrier: BarrierId) -> None:
        self._drain(proc)
        self._exits = self._arrived(proc, self._next_record())

    def _on_barrier_complete(self, barrier: BarrierId) -> None:
        self._completed(self._exits)

    # -- diff garbage collection -----------------------------------------------

    def _collect_garbage(self) -> None:
        """Reclaim diffs no processor can ever need again.

        A diff of interval ``(q, k)`` for page ``P`` is collectable when
        (a) every processor's timestamp covers ``(q, k)`` — the notice is
        everywhere; (b) no processor still has it pending — everyone who
        caches ``P`` applied it; and (c) a *globally covered* later
        modification of ``P`` hb-dominates it, so any future fetch is
        served by the dominating modifier's aggregate instead. The
        reclaim is conservative (a covered diff with no covered
        dominator survives) and purely an accounting of the real
        protocol's memory behaviour — the simulator's value bookkeeping
        is unaffected.
        """
        collected_before = self.gc_collected_bytes
        self._sweep_garbage()
        if self._obs_events:
            self._emit(
                "gc_sweep",
                bytes=self.gc_collected_bytes - collected_before,
                retained=self.retained_diff_bytes,
            )

    def _sweep_garbage(self) -> None:
        """The GC sweep over the per-page retention logs.

        ``min_entries`` is the globally covered frontier: interval
        ``(q, k)`` is known everywhere iff ``k <= min_entries[q]``. Pages
        whose log holds fewer than two diffs, or no covered dominator,
        are skipped without building survivor lists.
        """
        lazy_state = self.lazy_state
        min_entries = [
            min(state.vc[r] for state in lazy_state) for r in range(self.n_procs)
        ]
        pending_refs = {
            (interval_id, page)
            for state in lazy_state
            for page, interval_ids in state.pending.items()
            for interval_id in interval_ids
        }
        collected = 0
        for page, page_live in self._live_by_page.items():
            if len(page_live) < 2:
                continue
            # Chain-maximal globally-covered modifying interval, folded
            # in close order.
            dominator: Optional[Interval] = None
            for interval, _wire in page_live:
                if interval.index <= min_entries[interval.proc] and (
                    dominator is None or dominator.precedes(interval)
                ):
                    dominator = interval
            if dominator is None:
                continue
            survivors = []
            for item in page_live:
                interval, wire = item
                if (
                    interval is not dominator
                    and interval.index <= min_entries[interval.proc]
                    and interval.precedes(dominator)
                    and (interval.id, page) not in pending_refs
                ):
                    collected += wire
                else:
                    survivors.append(item)
            if len(survivors) != len(page_live):
                self._live_by_page[page] = survivors
        self.gc_collected_bytes += collected
        self.retained_diff_bytes -= collected
        self.gc_runs += 1

    # -- tape replay kernels -----------------------------------------------------
    #
    # A certified run (certify_replay: nothing watches individual
    # messages, values or send order) never calls the public wrappers or
    # the _on_* hooks: _walk_runs drives the _t_* kernels below over the
    # run program. A sync kernel is its hook's body in the wrappers'
    # staging shell, and sends every hop to Network.send (ledger, a
    # stock probe's staged row, a recording run's capture, the tap). An
    # access run needs no kernel: it is its span's first touch, and
    # read_touch is the miss check. Under a stock probe (``self._obs``)
    # a kernel stages its operation's row as the base wrappers would;
    # under a sink or a span probe (``self._obs_events``; ``self._span``,
    # the records being written) it also emits the wrappers' events and
    # writes the window. Everything stays bit-identical to the
    # interpreter and to the test oracle — the equivalence suite pins it.

    #: What a priced tape restores besides the class's ``result_counters``:
    #: the miss and diff counts every result reads, and the m and h
    #: histograms ``instrumented_run`` reads.
    priced_counters = (
        "cold_misses",
        "invalid_misses",
        "diffs_fetched",
        "diff_bytes_fetched",
        "miss_m_histogram",
        "pull_h_histogram",
    )

    def fold_priced(self, tape: PricedTape) -> None:
        """Replay this run as a fold over ``tape``, the cell's kept priced
        tape, instead of the kernels (the engine's call: the run writes no
        event, stream or send log)."""
        self._priced = tape

    def record_priced(self) -> None:
        """Run the kernels and price the run as they go; the run's
        callable then returns the cell's :class:`PricedTape`."""
        self._recording = True

    def bind_batch_plan(self, plan) -> Callable[[], Optional[PricedTape]]:
        """Attach a prebuilt :class:`~repro.hb.skeleton.BatchPlan`.

        Binds the plan as the interpreter does (:meth:`bind_skeleton`),
        builds the tables the kernels read (:meth:`_bind_tables`), and
        returns the whole run as one callable: :func:`_walk_runs` over
        the plan's run program and four kernels,
        ``(touch, acquire, release, barrier)``. ``read_touch`` is the
        only access kernel; the sync kernels replay the skeleton's
        records, one per sync instruction, in place of the base wrappers
        (lock/barrier directory upkeep is dead state here).
        The replay is value-free: page *state* is maintained, contents
        and dirty words are not. A send log being recorded follows
        the walk: each instruction moves its cursor to the instruction's
        op position. A run handed its cell's priced tape
        (:meth:`fold_priced`) is :meth:`~repro.protocols.base.Protocol._fold`
        over it and binds none of that; one asked to record it
        (:meth:`record_priced`) walks :meth:`_record_priced`.
        """
        if self._priced is not None:
            return partial(self._fold, self._priced)
        self.bind_skeleton(plan)
        self._bind_tables()
        self._value_free = True
        runs, positions = plan.run_program
        if self._log is not None:
            runs = self._log.track(runs, positions)
        walk = self._record_priced if self._recording else _walk_runs
        return partial(
            walk, runs, self.read_touch, self._t_acquire, self._t_release, self._t_barrier
        )

    def _record_priced(self, runs, touch, acquire, release, barrier) -> PricedTape:
        """:func:`_walk_runs`, pricing the run as the kernels charge it.

        The network's ledger updates are captured into a
        :class:`~repro.hb.skeleton.PriceRecorder`, and each sync kernel
        charges first the gap before it to the miss row and then its own
        charges to its row, whether it charged anything or not.
        ``complete`` comes from the protocol's barrier directory, idle on
        the tape and walked here; faults are the miss counters.
        """
        recorder = PriceRecorder()
        self.network._capture = recorder.captured
        arrive = self.barriers.record_arrival

        def faults() -> int:
            return self.cold_misses + self.invalid_misses

        def priced(kernel, kind: str):
            def run(proc: ProcId, ident: int) -> None:
                recorder.close(MISS_CAUSE, faults())
                kernel(proc, ident)
                complete = kind == "barrier" and arrive(proc, ident)
                recorder.close((kind, ident), faults(), complete)

            return run

        _walk_runs(
            runs, touch, priced(acquire, "lock"), priced(release, "lock"), priced(barrier, "barrier")
        )
        recorder.close(MISS_CAUSE, faults())  # the gap after the last sync
        self.network._capture = None
        counters = {}
        for name in self.priced_counters + self.result_counters:
            value = getattr(self, name)
            if value:  # (the ones the run moved)
                counters[name] = dict(value) if isinstance(value, dict) else value
        return recorder.tape(counters)

    def _stage_row(self, rows: Dict[int, List[int]], cause: str, ident: int):
        """Swap in ``(cause, ident)``'s staged row; returns the one to
        restore. Rows are created on first use, in wrapper order.
        Writing a record stream, this opens the operation's window,
        which :meth:`_unstage` closes."""
        probe = self.probe
        saved = probe._seg_row
        row = rows.get(ident)
        if row is None:
            row = rows[ident] = probe._cause_row(cause, ident)
        probe._seg_row = row
        if self._span is not None:
            self._span.begin(cause, ident)
        return saved

    def _unstage(self, saved: List[int]) -> None:
        """Restore the staged row ``_stage_row`` swapped out."""
        self.probe._seg_row = saved
        if self._span is not None:
            self._span.end()

    def _t_acquire(self, proc: ProcId, lock: LockId) -> None:
        obs = self._obs
        if obs:
            saved = self._stage_row(self.probe._lock_rows, "lock", lock)
            if self._obs_events:
                self._emit("acquire", proc=proc, lock=lock)
        self._acquired(proc, self._next_record())
        if obs:
            self._unstage(saved)

    def _t_release(self, proc: ProcId, lock: LockId) -> None:
        obs = self._obs
        if obs:
            saved = self._stage_row(self.probe._lock_rows, "lock", lock)
            if self._obs_events:
                self._emit("release", proc=proc, lock=lock)
        self._closed(proc, *self._next_record()[0])
        if obs:
            self._unstage(saved)

    def _t_barrier(self, proc: ProcId, barrier: BarrierId) -> None:
        obs = self._obs
        if obs:
            saved = self._stage_row(self.probe._barrier_rows, "barrier", barrier)
            if self._obs_events:
                self._emit("barrier_arrive", proc=proc, barrier=barrier)
        complete = self._arrived(proc, self._next_record())
        if complete is not None:
            if self._obs_events:
                self._emit("barrier_complete", proc=proc, barrier=barrier)
            self._completed(complete)
            if obs:
                # Exit traffic belongs to the episode it closes; the
                # staged rows are zeroed in place, so ``saved`` stays live.
                self._next_epoch()
        if obs:
            self._unstage(saved)


def _walk_runs(instructions: List[tuple], touch, acquire, release, barrier) -> None:
    """Drive the kernels ``bind_batch_plan`` binds over the run program.

    ``touch`` is all an access run needs. Between two of its own
    synchronization operations nothing can invalidate the span owner's
    page (notices arrive only at its acquires and at barrier
    completions, and both end the span), so a page that serviced its
    miss at the span's first access stays VALID for the rest of it; LH's
    used-since-pull flag, set by that touch, is cleared only at the same
    two places. And the span's writes need no bookkeeping: page
    contents and the dirty registry are unobservable under a
    tape replay (``record_values`` forces the per-event path, and the
    closes take prebuilt diffs from the skeleton).
    """
    # Instructions iterate as pre-unpacked 3-tuples: one C-level
    # UNPACK_SEQUENCE per run beats repeated ins[n] indexing. Branches
    # are ordered by instruction frequency in the app traces.
    for kind, proc, value in instructions:
        if kind == R_TOUCH:
            touch(proc, value)
        elif kind == R_ACQUIRE:
            acquire(proc, value)
        elif kind == R_RELEASE:
            release(proc, value)
        else:  # R_BARRIER
            barrier(proc, value)
