"""Eager release consistency after Munin's write-shared protocol (§3).

A processor delays propagating its modifications until it reaches a
release (or a barrier). At that point it pushes, to every other cacher of
each modified page, either an invalidation (EI) or a diff (EU) — merged
into one message per destination, as Munin merges all writes going to the
same destination — and blocks until acknowledged. No consistency actions
happen at acquires. Access misses are serviced through a static directory
manager: two messages when the manager can supply the page, three when it
forwards to the current owner.

False sharing under EI creates *excess invalidators*: a processor whose
copy was invalidated while it held unflushed modifications. Its flush
cannot simply invalidate others (its copy is incomplete); instead it ships
its diff to the current owner, which merges it — the paper's ``v`` term
(Table 1).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.common.types import BarrierId, LockId, PageId, ProcId
from repro.hb.skeleton import E_MISS
from repro.memory.diff import Diff
from repro.memory.page import PageEntry, PageState
from repro.network.message import BARRIER_FLUSH_KINDS, UNLOCK_FLUSH_KINDS, MessageKind
from repro.obs.probe import NULL_PROBE
from repro.protocols.base import Protocol
from repro.config import SimConfig
from repro.trace.precompile import OP_ACQUIRE, OP_BARRIER, OP_RELEASE


class PageDirectory:
    """Global directory: per-page copyset and owner.

    The *owner* is the last processor to have flushed the page while
    holding a complete copy; its copy is always current, so it services
    misses and absorbs excess invalidators' diffs.
    """

    def __init__(self) -> None:
        self.copyset: Dict[PageId, Set[ProcId]] = {}
        self.owner: Dict[PageId, Optional[ProcId]] = {}

    def cachers(self, page: PageId) -> Set[ProcId]:
        return self.copyset.setdefault(page, set())

    def owner_of(self, page: PageId) -> Optional[ProcId]:
        return self.owner.get(page)

    def record_fetch(self, proc: ProcId, page: PageId) -> None:
        self.cachers(page).add(proc)
        if self.owner.get(page) is None:
            self.owner[page] = proc


#: Message kinds used by a flush, per context (``UNLOCK_FLUSH_KINDS`` /
#: ``BARRIER_FLUSH_KINDS`` in :mod:`repro.network.message`).
FlushKinds = Tuple[MessageKind, MessageKind, MessageKind, MessageKind]


#: The transition event a sync step's wrapper emits, by compiled op.
_SYNC_EVENTS = {OP_ACQUIRE: "acquire", OP_RELEASE: "release", OP_BARRIER: "barrier_arrive"}


class EagerTapeMixin:
    """Tape-driven replay shared by the eager family (EI/EU/EW).

    Unlike the lazy kernels, the eager one keeps no page tables or
    directory at replay time and never sees the run program: every miss,
    write fault, and flush outcome is precomputed by one walk over the
    compiled ops (:func:`~repro.hb.skeleton.eager_steps`), because eager
    state evolution depends only on (compiled trace, n_procs, policy)
    and the cost model only sizes wires. The walk is ordered by
    synchronization operations — one step per special access, carrying
    the misses of the gap before it — so a miss forced mid-span by a
    remote flush replays where the per-event path sends it: before the
    following sync, outside its probe attribution window, in the
    pre-completion epoch.

    The tape encodes the stock class's per-event semantics, so only a
    class that declares ``replay_certified`` in its own body is driven
    by it, and only in a run that watches no individual message
    (:func:`~repro.protocols.base.certify_replay`); anything else stays
    on the per-event interpreter, the bit-identical reference.

    A certified run is a fold over the **priced** tape
    (:class:`~repro.hb.skeleton.PricedTape`, through
    :meth:`~repro.protocols.base.Protocol._fold`, the one fold both
    families share): each barrier epoch's merged ledger deltas into the
    network, the counters and — under a stock probe — the staged
    attribution rows' sums. The priced tape is built from
    the walk's steps and they are dropped. A run that emits events or
    has a tap (``_tap``: a span probe or record stream being written,
    or a timed run writing its send log) walks them again,
    alongside the fold, for each one's events and messages, and keeps
    none of them either.
    """

    def bind_batch_plan(self, plan):
        """Bind the priced tape for this run's cost key (and, for events
        or a tap, a fresh walk's steps beside it); returns the whole run
        as one callable."""
        self._page_fetch_bytes = self.costs.page_bytes(self.page_size)
        self._ops = plan.ops
        walk = self._obs_events or self._tap is not None
        self._steps = plan.eager_steps(self.name) if walk else None
        # A priced build prices the steps in hand rather than walk again.
        self._priced = plan.priced_eager_tape(
            self.name, self.costs, self.config.free_local_lock_reacquire, self._steps
        )
        return self._t_run if walk else partial(self._fold, self._priced)

    # -- priced tape replay ----------------------------------------------------

    def _t_run(self) -> None:
        """The whole run with its events and messages: the fold, each
        epoch preceded by its steps of the walk.

        A gap's events land before the sync operation after it. The tap
        gets, between the events, each step's messages in the order the
        per-event hooks send them (a send log each at its op), and a span
        stream each operation's window around them. An epoch's walk stops
        at the arrival the protocol's (otherwise idle) barrier directory
        says completes it, the window left open for the fold.
        """
        emit = self._emit if self._obs_events else NULL_PROBE.emit
        span, log, send = self._span, self._log, self._tap
        steps = iter(self._steps)
        arrive = self.barriers.record_arrival
        if log is not None:  # (a step names its sync op, not the op's position)
            sync_at = (at for at, op in enumerate(self._ops) if op[0] >= OP_ACQUIRE)

        def walk() -> None:
            for sync, gap, flush in steps:
                self._emit_gap(gap, emit, send)
                if sync is None:  # the gap after the last operation
                    return
                op, proc, ident = sync
                # The cause kind names the event's id field too.
                kind = "barrier" if op == OP_BARRIER else "lock"
                if log is not None:
                    log.at = next(sync_at)
                if span is not None:
                    span.begin(kind, ident)
                emit(_SYNC_EVENTS[op], proc=proc, **{kind: ident})
                self._emit_flush(proc, flush, op, emit, send)
                if send is not None:
                    self._span_sync(op, proc, ident, send)
                if op == OP_BARRIER and arrive(proc, ident):
                    emit("barrier_complete", proc=proc, barrier=ident)
                    if send is not None:
                        for target in self.barriers.exit_targets():
                            send(MessageKind.BARRIER_EXIT, self.barriers.master, target)
                    return
                if span is not None:
                    span.end()

        self._fold(self._priced, walk)

    def _span_sync(self, op: int, proc: ProcId, ident: int, send) -> None:
        """The hops of one sync operation itself, as the ``_on_*`` hooks
        send them after any flush; the protocol's own (otherwise idle)
        lock directory is walked along for the grantors."""
        locks = self.locks
        if op == OP_ACQUIRE:
            grantor = locks.grantor_of(ident)
            if grantor != proc or not self.config.free_local_lock_reacquire:
                manager = locks.manager_of(ident)
                send(MessageKind.LOCK_REQUEST, proc, manager)
                send(MessageKind.LOCK_FORWARD, manager, grantor)
                send(MessageKind.LOCK_GRANT, grantor, proc)
            locks.record_acquire(proc, ident)
        elif op == OP_RELEASE:
            locks.record_release(proc, ident)
        else:
            send(MessageKind.BARRIER_ARRIVAL, proc, self.barriers.master)

    def _emit_gap(self, gap: tuple, emit, send) -> None:
        """The events of one gap's misses and write faults, in the order
        ``_service_miss`` / ``_fetch_page_copy`` / EW's fault emit them
        — and, given ``send``, their messages in between, each at its
        access's position in a send log."""
        log = self._log
        page_bytes = self._page_fetch_bytes
        for rec in gap:
            holders = ()
            if rec[0] == E_MISS:
                _, at, proc, page, *miss = rec
            else:  # E_WFAULT: an optional nested miss, then the invalidations
                _, at, proc, page, miss, holders, _ping = rec
                emit("write_fault", proc=proc, page=page)
            if log is not None:
                log.at = at
            if miss is not None:
                cold, server, forward = miss
                emit("page_fault", proc=proc, page=page, cold=int(cold))
                if send is not None:
                    if forward is None:
                        send(MessageKind.PAGE_REQUEST, proc, server)
                    else:
                        send(MessageKind.PAGE_REQUEST, proc, forward)
                        send(MessageKind.PAGE_FORWARD, forward, server)
                    send(MessageKind.PAGE_REPLY, server, proc, page_bytes)
                emit("page_fetch", proc=proc, page=page, server=server, bytes=page_bytes)
            if send is not None:
                for holder in holders:
                    send(MessageKind.WRITE_NOTICE, proc, holder, 0, self.costs.write_notice_bytes)
                    send(MessageKind.RELEASE_ACK, holder, proc)

    def _emit_flush(self, proc: ProcId, flush: Optional[tuple], op: int, emit, send) -> None:
        """The events of one flush outcome (``EagerProtocol._flush``)
        and, given ``send``, its messages in the same order."""
        if flush is None:
            return
        costs = self.costs
        header_bytes, word_bytes = costs.diff_run_header_bytes, costs.word_bytes
        notice_kind, update_kind, ack_kind, reconcile_kind = (
            UNLOCK_FLUSH_KINDS if op == OP_RELEASE else BARRIER_FLUSH_KINDS
        )
        count, excess, pushes = flush
        emit("flush", proc=proc, count=count)
        if send is not None:
            for _page, owner, n_runs, n_words, dests in excess:
                send(reconcile_kind, proc, owner, n_runs * header_bytes + n_words * word_bytes)
                send(ack_kind, owner, proc)
                for dest in dests:
                    send(notice_kind, proc, dest, 0, costs.notices_bytes(1))
                    send(ack_kind, dest, proc)
        update = self.update
        for dest, n_diffs, runs_total, words_total in pushes:
            if update:
                payload = runs_total * header_bytes + words_total * word_bytes
                if send is not None:
                    send(update_kind, proc, dest, payload)
                emit("update_push", proc=proc, dest=dest, count=n_diffs, bytes=payload)
            else:
                control = costs.notices_bytes(n_diffs)
                if send is not None:
                    send(notice_kind, proc, dest, 0, control)
                emit("notices_send", proc=proc, dest=dest, count=n_diffs, bytes=control)
            if send is not None:
                send(ack_kind, dest, proc)


class EagerProtocol(EagerTapeMixin, Protocol):
    """Common eager implementation; EI/EU differ in what a flush pushes."""

    lazy = False

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.directory = PageDirectory()
        self._flush_counter = [0] * config.n_procs
        self.flushes = 0
        self.reconciles = 0

    # -- release-time propagation ------------------------------------------

    def _flush(self, proc: ProcId, kinds: FlushKinds) -> None:
        """Propagate ``proc``'s modifications since its last flush."""
        notice_kind, update_kind, ack_kind, reconcile_kind = kinds
        dirty_entries = [e for e in self.procs[proc].pages if e.is_dirty]
        if not dirty_entries:
            return
        self.flushes += 1
        if self._obs_events:
            self._emit("flush", proc=proc, count=len(dirty_entries))
        index = self._flush_counter[proc]
        self._flush_counter[proc] += 1

        per_dest: Dict[ProcId, List[Diff]] = {}
        for entry in dirty_entries:
            page = entry.page_id
            diff = Diff(page, proc, index, entry.dirty_words)
            if entry.state == PageState.INVALID:
                # Excess invalidator: someone else invalidated this copy
                # while we held modifications (false sharing). Ship the
                # diff to the owner, whose copy stays authoritative, and
                # invalidate any cacher that fetched before this diff
                # arrived — its copy is stale with respect to these words.
                self._reconcile(proc, diff, reconcile_kind, ack_kind)
                owner = self.directory.owner_of(page)
                for dest in sorted(self.directory.cachers(page) - {proc, owner}):
                    self.network.send(
                        notice_kind,
                        proc,
                        dest,
                        control_bytes=self.costs.notices_bytes(1),
                    )
                    self._apply_invalidations(dest, [page])
                    self.network.send(ack_kind, dest, proc)
                entry.clear_dirty()
                continue
            for dest in sorted(self.directory.cachers(page) - {proc}):
                per_dest.setdefault(dest, []).append(diff)
            self._post_flush_page(proc, page)
            entry.clear_dirty()

        # A diff shipped to k destinations has one wire size; compute it
        # once instead of re-run-length-encoding per destination.
        wire_cache: Dict[int, int] = {}
        for dest in sorted(per_dest):
            diffs = per_dest[dest]
            if self.update:
                payload = 0
                for diff in diffs:
                    wire = wire_cache.get(id(diff))
                    if wire is None:
                        wire = wire_cache[id(diff)] = diff.wire_bytes(self.costs)
                    payload += wire
                self.network.send(update_kind, proc, dest, payload_bytes=payload)
                self._apply_updates(dest, diffs)
                if self._obs_events:
                    self._emit(
                        "update_push", proc=proc, dest=dest, count=len(diffs), bytes=payload
                    )
            else:
                control = self.costs.notices_bytes(len(diffs))
                self.network.send(notice_kind, proc, dest, control_bytes=control)
                self._apply_invalidations(dest, [diff.page for diff in diffs])
                if self._obs_events:
                    self._emit(
                        "notices_send", proc=proc, dest=dest, count=len(diffs), bytes=control
                    )
            self.network.send(ack_kind, dest, proc)

    def _reconcile(
        self, proc: ProcId, diff: Diff, reconcile_kind: MessageKind, ack_kind: MessageKind
    ) -> None:
        owner = self.directory.owner_of(diff.page)
        assert owner is not None and owner != proc, (
            f"invalid copy at p{proc} for page {diff.page} without a foreign owner"
        )
        self.reconciles += 1
        self.network.send(
            reconcile_kind, proc, owner, payload_bytes=diff.wire_bytes(self.costs)
        )
        owner_entry = self.entry(owner, diff.page)
        diff.apply_to(owner_entry.page.words)
        # The owner's own unflushed writes stay on top of merged data.
        owner_entry.page.words.update(owner_entry.dirty_words)
        self.network.send(ack_kind, owner, proc)

    def _apply_updates(self, dest: ProcId, diffs: List[Diff]) -> None:
        for diff in diffs:
            entry = self.entry(dest, diff.page)
            diff.apply_to(entry.page.words)
            entry.page.words.update(entry.dirty_words)

    def _apply_invalidations(self, dest: ProcId, pages: List[PageId]) -> None:
        for page in pages:
            entry = self.entry(dest, page)
            if entry.state == PageState.VALID:
                entry.state = PageState.INVALID
            self.directory.cachers(page).discard(dest)

    def _post_flush_page(self, proc: ProcId, page: PageId) -> None:
        """EI narrows the copyset and takes ownership; EU keeps the copyset."""
        self.directory.owner[page] = proc

    # -- access misses -----------------------------------------------------------

    def _handle_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        """Two or three messages through the directory manager (§3)."""
        manager = self.page_manager(page)
        manager_has_copy = manager in self.directory.cachers(page) or (
            self.directory.owner_of(page) is None
        )
        if manager_has_copy:
            # The manager supplies the page (or its initial zero contents).
            self._fetch_page_copy(proc, page, entry, server=manager)
        else:
            owner = self.directory.owner_of(page)
            assert owner is not None
            server = owner if owner != proc else manager
            self._fetch_page_copy(proc, page, entry, server=server, forward=manager)
        self.directory.record_fetch(proc, page)

    # -- synchronization -----------------------------------------------------------

    def _on_acquire(self, proc: ProcId, lock: LockId) -> None:
        """No consistency-related operations occur on an acquire (§3)."""
        grantor = self.locks.grantor_of(lock)
        if grantor == proc and self.config.free_local_lock_reacquire:
            return
        manager = self.locks.manager_of(lock)
        self.network.send(MessageKind.LOCK_REQUEST, proc, manager)
        self.network.send(MessageKind.LOCK_FORWARD, manager, grantor)
        self.network.send(MessageKind.LOCK_GRANT, grantor, proc)

    def _on_release(self, proc: ProcId, lock: LockId) -> None:
        self._flush(proc, UNLOCK_FLUSH_KINDS)

    def _on_barrier_arrive(self, proc: ProcId, barrier: BarrierId) -> None:
        self._flush(proc, BARRIER_FLUSH_KINDS)
        if proc != self.barriers.master:
            self.network.send(MessageKind.BARRIER_ARRIVAL, proc, self.barriers.master)

    def _on_barrier_complete(self, barrier: BarrierId) -> None:
        for proc in self.barriers.exit_targets():
            self.network.send(MessageKind.BARRIER_EXIT, self.barriers.master, proc)
