"""The test oracle, written apart from the code it checks and on no
measured path: §4's lazy rules as the paper words them — closes, clock
merges and notice gaps stated apart from ``src/``'s one statement of
them, and fetches as plain scans (:class:`ReferenceScans`,
:class:`ReferenceStore`) — the raw-event interpreter
(:class:`ReferenceEngine`) and the scheduler's step-at-a-time loop
(:func:`scheduler_reference_run`)."""

from __future__ import annotations

import time
from collections import deque
from functools import cache
from typing import Dict, List

from repro.common.errors import ConfigError, TraceError
from repro.common.gcpause import gc_paused
from repro.common.types import WORD_SIZE
from repro.hb.interval import Interval
from repro.hb.store import IntervalStore
from repro.hb.write_notice import WriteNotice
from repro.memory.diff import Diff
from repro.network.message import MessageKind
from repro.protocols.base import Protocol
from repro.protocols.lazy_base import LazyProtocol
from repro.protocols.registry import protocol_class
from repro.runtime.ops import Op, OpKind
from repro.simulator.engine import Engine
from repro.trace.events import EventType
from repro.trace.precompile import split_access


class ReferenceStore(IntervalStore):
    """An interval store whose notice gap walks the intervals themselves."""

    def gap(self, sender_vc, receiver_vc):
        """A notice per page modified by each interval the sender knows
        and the receiver lacks, grouped as the stock gap groups them."""
        return self.group(
            [
                WriteNotice(creator, interval.index, page)
                for creator, first, last in sender_vc.missing_from(receiver_vc)
                for interval in self.intervals_of(creator, first, last)
                for page in interval.modified_pages
            ]
        )


#: The request/reply kinds of an update protocol's pull at an acquire
#: and at a barrier exit.
_ACQUIRE_PULL_KINDS = (MessageKind.ACQUIRE_DIFF_REQUEST, MessageKind.ACQUIRE_DIFF_REPLY)
_BARRIER_PULL_KINDS = (MessageKind.BARRIER_UPDATE_REQUEST, MessageKind.BARRIER_UPDATE)


class ReferenceScans(LazyProtocol):
    """The lazy hooks as §4 states them, over a :class:`ReferenceStore`
    and with no skeleton or planner: each special access closes the
    interval from the page table's dirty words, an acquire merges the
    grantor's timestamp, a barrier the running merge of its episode, and
    every notice batch is the store's gap; fetches are per-fetch scans.
    It sits between a lazy protocol and ``LazyProtocol``."""

    def bind_interpreter(self) -> None:
        Protocol.bind_interpreter(self)
        self.store = ReferenceStore(self.n_procs)
        #: In-flight barrier episodes: barrier id -> each arrival's clock.
        self._episodes = {}
        #: Every retained diff as ``(interval, page, wire bytes)``, in close order.
        self._live_diffs = []

    def _interval_of(self, diff: Diff) -> Interval:
        return self.store.get((diff.creator, diff.interval))

    def _close_interval(self, proc) -> None:
        state = self.lazy_state[proc]
        index = state.vc[proc] + 1
        vc = state.vc.advanced(proc, index)
        interval = Interval(proc, index, vc)
        # First-write order, like every other loop: it fixes the order of
        # the interval's diffs, hence of its notices and their events.
        for entry in self.procs[proc].pages.drain_dirty():
            if entry.is_dirty:
                diff = Diff(entry.page_id, proc, index, entry.dirty_words)
                interval.add_diff(diff)
                entry.clear_dirty()
                wire = diff.wire_bytes(self.costs)
                self.retained_diff_bytes += wire
                self._live_diffs.append((interval, diff.page, wire))
        self.peak_retained_diff_bytes = max(self.peak_retained_diff_bytes, self.retained_diff_bytes)
        interval.close()
        self.store.add(interval)
        state.vc = vc
        self.intervals_closed += 1
        if self._obs_events:
            self._emit_interval_close(proc, index, interval)
        if interval.diffs:
            self._on_close(proc, interval)

    def _on_acquire(self, proc, lock) -> None:
        self._close_interval(proc)
        grantor = self.locks.grantor_of(lock)
        if grantor == proc and self.config.free_local_lock_reacquire:
            return
        grantor_vc = self.lazy_state[grantor].vc
        vc = self.lazy_state[proc].vc
        n_notices, grouped = self.store.gap(grantor_vc, vc)
        self._grant(proc, self.locks.manager_of(lock), grantor, n_notices)
        self._receive(proc, grouped, vc.merged(grantor_vc), _ACQUIRE_PULL_KINDS)

    def _on_release(self, proc, lock) -> None:
        self._close_interval(proc)

    def _on_barrier_arrive(self, proc, barrier) -> None:
        self._close_interval(proc)
        vc = self.lazy_state[proc].vc
        master = self.barriers.master
        if proc != master:
            self._arrive(proc, master, self.store.gap(vc, self._episode_clock(barrier))[0])
        self._episodes.setdefault(barrier, []).append(vc)

    def _episode_clock(self, barrier):
        """The running merge of the episode's arrivals plus the master's clock."""
        merged = self.lazy_state[self.barriers.master].vc
        for vc in self._episodes.get(barrier, ()):
            merged = merged.merged(vc)
        return merged

    def _on_barrier_complete(self, barrier) -> None:
        master = self.barriers.master
        merged = self._episode_clock(barrier)
        self._episodes[barrier] = []
        for proc in range(self.n_procs):
            vc = self.lazy_state[proc].vc
            n_notices, grouped = self.store.gap(merged, vc)
            self._exit(master, proc, n_notices)
            self._receive(proc, grouped, vc.merged(merged), _BARRIER_PULL_KINDS)
        if self.config.gc_at_barriers:
            self._collect_garbage()

    def _drop_retained(self, interval, pages) -> None:
        dropped = {live for live in self._live_diffs if live[0] is interval and live[1] in pages}
        self.retained_diff_bytes -= sum(live[2] for live in dropped)
        self._live_diffs = [live for live in self._live_diffs if live not in dropped]

    def _collect_diffs(self, proc, pages, request_kind, reply_kind) -> int:
        pending = self.lazy_state[proc].pending
        needed = [
            self.store.get(interval_id).diff_for(page)
            for page in pages
            for interval_id in pending.pop(page, ())
        ]
        if not needed:
            return 0
        if self.config.skip_overwritten_diffs:
            needed = self._prune_overwritten(needed)
        by_server = self._assign_servers(needed)
        for server in sorted(by_server):
            diffs = by_server[server]
            payload = self._aggregate_wire_bytes(diffs)
            self.network.send(request_kind, proc, server)
            self.network.send(reply_kind, server, proc, payload_bytes=payload)
            self.diffs_fetched += len(diffs)
            self.diff_bytes_fetched += payload
            if self._obs_events:
                self._emit("diff_fetch", proc=proc, server=server, count=len(diffs), bytes=payload)
        self._apply_diffs(proc, needed)
        return len(by_server)

    def _prune_overwritten(self, needed: List[Diff]) -> List[Diff]:
        """Drop each diff whose every word an hb-later needed diff of
        the same page rewrites."""
        at = {diff: self._interval_of(diff) for diff in needed}
        return [
            diff
            for diff in needed
            if not any(
                other.page == diff.page
                and diff.words.keys() <= other.words.keys()
                and at[diff].precedes(at[other])
                for other in needed
            )
        ]

    def _assign_servers(self, needed: List[Diff]) -> Dict[int, List[Diff]]:
        """Route each needed diff to the latest hb-maximal needed diff of
        its page that is it or hb-follows it: that creator's copy holds
        the modification."""
        at = {diff: self._interval_of(diff) for diff in needed}

        def before(diff: Diff, other: Diff) -> bool:
            return other.page == diff.page and at[diff].precedes(at[other])

        maximal = [diff for diff in needed if not any(before(diff, other) for other in needed)]
        by_server: Dict[int, List[Diff]] = {}
        for diff in needed:
            covering = [top for top in maximal if top is diff or before(diff, top)]
            server = max(covering, key=lambda top: (sum(at[top].vc), top.creator)).creator
            by_server.setdefault(server, []).append(diff)
        return by_server

    def _aggregate_wire_bytes(self, diffs: List[Diff]) -> int:
        """Wire size of one server's aggregate: per page, the union of
        its diffs' words, each word once, run-length encoded."""
        by_page: Dict[int, set] = {}
        for diff in diffs:
            by_page.setdefault(diff.page, set()).update(diff.words)
        total = 0
        for words in by_page.values():
            runs = sum(word - 1 not in words for word in words)  # a run starts after a gap
            total += runs * self.costs.diff_run_header_bytes + len(words) * self.costs.word_bytes
        return total

    def _apply_diffs(self, proc, diffs: List[Diff]) -> None:
        """Apply diffs in hb order (a timestamp's entry sum is a
        topological key), keeping the local open interval's writes."""
        by_page: Dict[int, List[Diff]] = {}
        for diff in diffs:
            by_page.setdefault(diff.page, []).append(diff)
        for page, page_diffs in by_page.items():
            entry = self.entry(proc, page)
            page_diffs.sort(key=lambda d: (sum(self._interval_of(d).vc), d.creator, d.interval))
            for diff in page_diffs:
                diff.apply_to(entry.page.words)
            entry.page.words.update(entry.dirty_words)
            if self._obs_events:
                self._emit("diff_apply", proc=proc, page=page, count=len(page_diffs))

    def _sweep_garbage(self) -> None:
        """Collect each retained diff that is known everywhere, pending
        nowhere, and hb-before its page's chain-maximal known modifier."""
        covered = [min(state.vc[r] for state in self.lazy_state) for r in range(self.n_procs)]
        pending = {
            (interval_id, page)
            for state in self.lazy_state
            for page, interval_ids in state.pending.items()
            for interval_id in interval_ids
        }
        known = [live for live in self._live_diffs if live[0].index <= covered[live[0].proc]]
        dominators: Dict[int, Interval] = {}
        for interval, page, _wire in known:
            if page not in dominators or dominators[page].precedes(interval):
                dominators[page] = interval
        collected = {
            live
            for live in known
            if (live[0].id, live[1]) not in pending and live[0].precedes(dominators[live[1]])
        }
        self._live_diffs = [live for live in self._live_diffs if live not in collected]
        wire = sum(live[2] for live in collected)
        self.gc_collected_bytes += wire
        self.retained_diff_bytes -= wire
        self.gc_runs += 1


@cache
def reference_class(cls: type) -> type:
    """``cls`` on the reference scans when it is lazy, else ``cls``; one
    class per ``cls``, kept, as a class built per run would be garbage."""
    if not issubclass(cls, LazyProtocol):
        return cls
    return type(f"Reference{cls.__name__}", (cls, ReferenceScans), {})


class ReferenceEngine(Engine):
    """The original raw-event interpreter over ``reference_class(protocol)``,
    splitting every access at replay time; ``execution_path`` is
    ``reference``. Counting only: it refuses a ``link_model``."""

    def __init__(self, trace, config, protocol, **options):
        cls = protocol_class(protocol) if isinstance(protocol, str) else protocol
        super().__init__(trace, config, reference_class(cls), **options)

    @gc_paused()
    def run(self):
        if self.config.link_model is not None:
            raise ConfigError("the reference engine is counting-only; drop link_model")
        self._claim_run()
        self._execution_path = "reference"
        protocol = self.protocol
        protocol.bind_interpreter()
        page_size = self.config.page_size
        splits: dict = {}
        read_values = [] if self.config.record_values else None
        t0 = time.perf_counter()
        for event in self.trace:
            if event.type == EventType.READ:
                chunks = split_access(event.addr, event.size, page_size, splits)
                values = [v for page, words in chunks for v in protocol.read(event.proc, page, words)]
                if read_values is not None:
                    read_values.append((event.seq, values))
            elif event.type == EventType.WRITE:
                for page, words in split_access(event.addr, event.size, page_size, splits):
                    protocol.write(event.proc, page, words, token=event.seq)
            elif event.type == EventType.ACQUIRE:
                protocol.acquire(event.proc, event.lock)
            elif event.type == EventType.RELEASE:
                protocol.release(event.proc, event.lock)
            else:
                protocol.barrier(event.proc, event.barrier)
        timings: Dict[str, float] = {}
        self._finish(timings, t0)
        return self._result(read_values, timings)


def scheduler_reference_run(scheduler):
    """The scheduler's original loop: rebuild the runnable list, pick a
    processor, run one of its operations; repeat."""
    scheduler._init_run()
    threads, memory, trace = scheduler._threads, scheduler.memory, scheduler.trace
    holders, waiting = scheduler._lock_holder, scheduler._lock_waiters
    while True:
        runnable = scheduler._runnable_list()
        if not runnable:
            if all(t.done for t in threads if t):
                return trace
            scheduler._raise_deadlock()
        proc = scheduler._pick(runnable)
        thread = threads[proc]
        scheduler.steps += 1
        try:
            op = thread.gen.send(thread.pending_result)
        except StopIteration:
            thread.done = True
            scheduler._unrun(proc)
            scheduler._check_barrier_stranding()
            continue
        thread.pending_result = None
        if not isinstance(op, Op):
            raise TraceError(f"thread p{proc} yielded {op!r}, expected an Op")
        if op.kind == OpKind.READ:
            values = [memory.get(op.addr + i * WORD_SIZE, 0) for i in range(op.n_words)]
            thread.pending_result = values if op.n_words > 1 else values[0]
            trace.append_raw(0, proc, op.addr, op.size)
        elif op.kind == OpKind.WRITE:
            for i, value in enumerate(op.write_values()):
                memory[op.addr + i * WORD_SIZE] = value
            trace.append_raw(1, proc, op.addr, op.size)
        elif op.kind == OpKind.ACQUIRE:
            if holders.get(op.lock) is None and not waiting.get(op.lock):
                holders[op.lock] = proc
                trace.append_raw(2, proc, op.lock, 0)
            else:
                waiting.setdefault(op.lock, deque()).append(proc)
                scheduler._blocked[proc] = op
                scheduler._unrun(proc)
        elif op.kind == OpKind.RELEASE:
            if holders.get(op.lock) != proc:
                raise TraceError(f"p{proc} releases lock {op.lock} held by {holders.get(op.lock)}")
            trace.append_raw(3, proc, op.lock, 0)
            holders[op.lock] = None
            if waiting.get(op.lock):
                next_proc = waiting[op.lock].popleft()
                del scheduler._blocked[next_proc]
                scheduler._rerun(next_proc)
                holders[op.lock] = next_proc
                trace.append_raw(2, next_proc, op.lock, 0)
        else:
            scheduler._barrier(proc, op)
