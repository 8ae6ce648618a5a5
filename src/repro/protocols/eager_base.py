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

from collections import Counter
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.common.types import BarrierId, LockId, PageId, ProcId
from repro.hb.skeleton import E_MISS, PriceRecorder, PricedTape
from repro.memory.diff import Diff
from repro.memory.page import PageEntry, PageState
from repro.network.message import BARRIER_FLUSH_KINDS, UNLOCK_FLUSH_KINDS, MessageKind
from repro.obs.probe import MISS_CAUSE, NULL_PROBE
from repro.protocols.base import Protocol
from repro.config import SimConfig
from repro.sync.barrier import BarrierMaster
from repro.sync.lock_manager import LockDirectory
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


#: A write fault's nested fetch when it has none: ``(cold, server, forward)``.
_NO_MISS = (None, None, None)


def _unsent(kind, src, dst, payload_bytes=0, control_bytes=0) -> None:
    """Where a writing run with no tap sends its messages: nowhere."""


def walk_eager_steps(plan, policy: str, cost_model, free_reacquire: bool, run=None) -> PricedTape:
    """Walk ``policy``'s :func:`~repro.hb.skeleton.eager_steps` once,
    priced at one cost key and summed per barrier epoch: the one place
    eager steps become messages.

    Each step's gap is charged to the miss row, then its synchronization
    operation with its flush outcome to the operation's row — exactly
    what the per-event hooks send. The lock hops come from a
    :class:`LockDirectory` walked along, which also rejects a malformed
    lock or barrier sequence here, as the live directory would. A
    charge is priced per kind, since the tape keeps only per-kind sums,
    and memoized by what varies between steps that flush nothing: which
    hops are remote, or how many of each kind a gap sends.

    ``run``, a tape run that writes events or messages, gets in the same
    loop what the hooks would give it, in their order: each event at
    ``run._emit``, each message at ``run._tap`` (a send log's cursor at
    its access or operation), each operation's window in the span
    stream being written. Each epoch is folded into ``run`` as it ends
    (:meth:`~repro.protocols.base.Protocol._fold_epoch`), so the tape
    returned holds only the counters.
    """
    update = policy == "EU"
    page_bytes = cost_model.page_bytes(plan.page_size)
    notice_bytes = cost_model.write_notice_bytes
    run_header = cost_model.diff_run_header_bytes
    word_bytes = cost_model.word_bytes
    header = cost_model.header_bytes if cost_model.count_header_in_data else 0
    count_control = cost_model.count_control_in_data
    # Acks move bytes but, under ``count_acks=False``, no message count.
    uncounted = () if cost_model.count_acks else tuple(
        kind.slot for kind in MessageKind if kind.is_ack
    )

    writes = run is not None
    emit = run._emit if writes and run._obs_events else NULL_PROBE.emit
    send = run._tap if writes and run._tap is not None else _unsent
    span = run._span if writes else None
    log = run._log if writes else None
    if log is not None:  # (a step names its sync op, not the op's position)
        sync_at = (at for at, op in enumerate(plan.ops) if op[0] >= OP_ACQUIRE)

    counters: Counter = Counter()
    recorder = PriceRecorder(run._fold_epoch if writes else None)
    charge = recorder.captured.append
    faults = 0  # misses so far, the nested ones of write faults included
    memo: Dict[tuple, tuple] = {}

    def price(sends) -> tuple:
        """The merged deltas of ``(kind, n, payload, control)`` sends:
        ``n`` non-local messages of ``kind``, the byte fields their sums."""
        by_slot: Dict[int, List[int]] = {}
        for kind, n, payload, control in sends:
            if not n:
                continue
            slot = kind.slot
            acc = by_slot.get(slot)
            if acc is None:
                by_slot[slot] = acc = [slot, 0, 0, 0]
            if slot not in uncounted:
                acc[1] += n
            acc[2] += payload + n * header + (control if count_control else 0)
            acc[3] += control
        return tuple([tuple(acc) for acc in by_slot.values()])

    def walk_gap(gap: tuple) -> None:
        """One gap's misses and write faults (``_service_miss`` /
        ``_fetch_page_copy`` / EW's fault), charged to the miss row."""
        nonlocal faults
        cold = invalid = requests = forwards = replies = 0
        write_faults = ping_pongs = invalidations = 0
        for rec in gap:
            if rec[0] == E_MISS:
                _, at, proc, page, is_cold, server, forward = rec
                holders = ()
            else:  # E_WFAULT (EW only): an optional nested miss, then
                # one invalidation and its ack per other holder.
                _, at, proc, page, miss, holders, ping = rec
                write_faults += 1
                invalidations += len(holders)
                ping_pongs += ping
                if writes:
                    emit("write_fault", proc=proc, page=page)
                is_cold, server, forward = miss or _NO_MISS
            if log is not None:
                log.at = at
            if is_cold is not None:
                if is_cold:
                    cold += 1
                else:
                    invalid += 1
                # bool arithmetic: a hop counts unless it is local.
                if forward is None:
                    requests += proc != server
                else:
                    requests += proc != forward
                    forwards += forward != server
                replies += server != proc
                if writes:
                    emit("page_fault", proc=proc, page=page, cold=int(is_cold))
                    if forward is None:
                        send(MessageKind.PAGE_REQUEST, proc, server)
                    else:
                        send(MessageKind.PAGE_REQUEST, proc, forward)
                        send(MessageKind.PAGE_FORWARD, forward, server)
                    send(MessageKind.PAGE_REPLY, server, proc, page_bytes)
                    emit("page_fetch", proc=proc, page=page, server=server, bytes=page_bytes)
            if writes:
                for holder in holders:
                    send(MessageKind.WRITE_NOTICE, proc, holder, 0, notice_bytes)
                    send(MessageKind.RELEASE_ACK, holder, proc)
        counters["cold_misses"] += cold
        counters["invalid_misses"] += invalid
        counters["write_faults"] += write_faults
        counters["ping_pongs"] += ping_pongs
        key = ("gap", requests, forwards, replies, invalidations)
        deltas = memo.get(key)
        if deltas is None:
            deltas = memo[key] = price(
                (
                    (MessageKind.PAGE_REQUEST, requests, 0, 0),
                    (MessageKind.PAGE_FORWARD, forwards, 0, 0),
                    (MessageKind.PAGE_REPLY, replies, replies * page_bytes, 0),
                    (MessageKind.WRITE_NOTICE, invalidations, 0, invalidations * notice_bytes),
                    (MessageKind.RELEASE_ACK, invalidations, 0, 0),
                )
            )
        if deltas:
            charge(deltas)
        faults += cold + invalid
        recorder.close(MISS_CAUSE, faults)

    def walk_flush(proc: ProcId, outcome: tuple, op: int) -> List[tuple]:
        """One flush outcome (``EagerProtocol._flush``) as sends to
        price: no hop of a flush is ever local."""
        notice_kind, update_kind, ack_kind, reconcile_kind = (
            UNLOCK_FLUSH_KINDS if op == OP_RELEASE else BARRIER_FLUSH_KINDS
        )
        count, excess, pushes = outcome
        counters["flushes"] += 1
        counters["reconciles"] += len(excess)
        if writes:
            emit("flush", proc=proc, count=count)
        sends = []
        for _page, owner, n_runs, n_words, dests in excess:
            diff_bytes = n_runs * run_header + n_words * word_bytes
            sends += (
                (reconcile_kind, 1, diff_bytes, 0),
                (notice_kind, len(dests), 0, len(dests) * notice_bytes),
                (ack_kind, 1 + len(dests), 0, 0),
            )
            if writes:
                send(reconcile_kind, proc, owner, diff_bytes)
                send(ack_kind, owner, proc)
                for dest in dests:
                    send(notice_kind, proc, dest, 0, notice_bytes)
                    send(ack_kind, dest, proc)
        payload = n_notices = 0
        for dest, n_diffs, runs_total, words_total in pushes:
            if update:
                push_bytes = runs_total * run_header + words_total * word_bytes
                payload += push_bytes
                if writes:
                    send(update_kind, proc, dest, push_bytes)
                    emit("update_push", proc=proc, dest=dest, count=n_diffs, bytes=push_bytes)
            else:
                n_notices += n_diffs
                if writes:
                    control = n_diffs * notice_bytes
                    send(notice_kind, proc, dest, 0, control)
                    emit("notices_send", proc=proc, dest=dest, count=n_diffs, bytes=control)
            if writes:
                send(ack_kind, dest, proc)
        if update:
            sends.append((update_kind, len(pushes), payload, 0))
        else:
            sends.append((notice_kind, len(pushes), 0, n_notices * notice_bytes))
        sends.append((ack_kind, len(pushes), 0, 0))
        return sends

    locks = LockDirectory(plan.n_procs)
    barriers = BarrierMaster(plan.n_procs)
    master = barriers.master
    for sync, gap, outcome in plan.eager_steps(policy):
        if gap:
            walk_gap(gap)
        if sync is None:  # the gap after the last operation
            break
        op, proc, value = sync
        cause = "barrier" if op == OP_BARRIER else "lock"
        complete = False
        if writes:
            if log is not None:
                log.at = next(sync_at)
            if span is not None:
                span.begin(cause, value)
        if op == OP_ACQUIRE:
            if writes:
                emit("acquire", proc=proc, lock=value)
            grantor = locks.grantor_of(value)
            if grantor != proc or not free_reacquire:
                manager = locks.manager_of(value)
                key = (op, proc != manager, manager != grantor, grantor != proc)
                if writes:
                    send(MessageKind.LOCK_REQUEST, proc, manager)
                    send(MessageKind.LOCK_FORWARD, manager, grantor)
                    send(MessageKind.LOCK_GRANT, grantor, proc)
            else:
                key = (op, False, False, False)
            locks.record_acquire(proc, value)
        elif op == OP_RELEASE:
            if writes:
                emit("release", proc=proc, lock=value)
            key = (op,)
            locks.record_release(proc, value)
        else:  # OP_BARRIER
            if writes:
                emit("barrier_arrive", proc=proc, barrier=value)
            complete = barriers.record_arrival(proc, value)
            key = (op, proc != master, complete)
        deltas = memo.get(key) if outcome is None else None
        if deltas is None:
            sends = walk_flush(proc, outcome, op) if outcome is not None else []
            if op == OP_ACQUIRE:
                sends += (
                    (MessageKind.LOCK_REQUEST, key[1], 0, 0),
                    (MessageKind.LOCK_FORWARD, key[2], 0, 0),
                    (MessageKind.LOCK_GRANT, key[3], 0, 0),
                )
            elif op == OP_BARRIER:
                n_exits = len(barriers.exit_targets()) if complete else 0
                sends += (
                    (MessageKind.BARRIER_ARRIVAL, key[1], 0, 0),
                    (MessageKind.BARRIER_EXIT, n_exits, 0, 0),
                )
            deltas = price(sends)
            if outcome is None:
                memo[key] = deltas
        if writes and op == OP_BARRIER:
            send(MessageKind.BARRIER_ARRIVAL, proc, master)
            if complete:
                emit("barrier_complete", proc=proc, barrier=value)
                for target in barriers.exit_targets():
                    send(MessageKind.BARRIER_EXIT, master, target)
        if deltas:
            charge(deltas)
        recorder.close((cause, value), faults, complete)
        if span is not None and not complete:  # (a completed epoch's fold ends it)
            span.end()
    return recorder.tape(dict(+counters))  # the moved ones only


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

    :func:`walk_eager_steps` turns the steps into charges. A run that
    writes no event and has no tap folds the priced tape of its cost
    key, memoized on the plan
    (:meth:`~repro.hb.skeleton.BatchPlan.priced_eager_tape`). One that
    does (a sink, a span probe or record stream being written, a timed
    run writing its send log) walks the steps once, writing as it goes
    and folding each epoch as it ends; it neither reads nor keeps the
    memo.
    """

    def bind_batch_plan(self, plan):
        """The whole run as one callable (see the class docstring)."""
        cost_key = (self.costs, self.config.free_local_lock_reacquire)
        if self._obs_events or self._tap is not None:
            return lambda: self._fold(walk_eager_steps(plan, self.name, *cost_key, self))
        return partial(self._fold, plan.priced_eager_tape(self.name, *cost_key))


class EagerProtocol(EagerTapeMixin, Protocol):
    """Common eager implementation; EI/EU differ in what a flush pushes."""

    lazy = False
    result_counters = ("flushes", "reconciles")

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.flushes = 0
        self.reconciles = 0

    def bind_interpreter(self) -> None:
        """The base tables plus the page directory and flush counters;
        the tape reads none of them (see :class:`EagerTapeMixin`)."""
        super().bind_interpreter()
        self.directory = PageDirectory()
        self._flush_counter = [0] * self.n_procs

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
