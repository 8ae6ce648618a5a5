"""EW — an exclusive-writer, sequentially consistent baseline (Ivy-style).

Not one of the paper's four protocols: §4.3.1 motivates multiple-writer
protocols by contrast with "the exclusive-writer protocol used, for
instance, in DASH, where a processor must obtain exclusive access to a
cache line before it can be modified. ... Exclusive-writer protocols may
cause falsely shared pages to ping-pong back and forth between different
processors." The paper's related work cites Ivy (Li & Hudak) as the
first page-based DSM, with sequentially consistent memory and no
multiple writers.

This implements that baseline: a write-invalidate, single-writer
protocol with a static directory manager per page. Data moves at access
time (whole pages); synchronization operations carry no consistency
actions at all. Every write requires exclusive ownership:

- read miss: 2-3 messages through the manager; the reader joins the
  copyset (read-only).
- write fault: the faulting processor obtains ownership through the
  manager (page transferred from the previous owner if needed) and every
  other copy is invalidated, one invalidation + ack per holder.

The claim ``ew.ping-pong-on-false-sharing`` pins the §4.3.1 ping-pong:
under pure false sharing EW's traffic dwarfs even EI's, and LRC's
multiple-writer diffs eliminate it entirely.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.types import BarrierId, LockId, PageId, ProcId
from repro.config import SimConfig
from repro.memory.page import PageEntry, PageState
from repro.network.message import MessageKind
from repro.protocols.base import Protocol
from repro.protocols.eager_base import EagerTapeMixin


class ExclusiveWriter(EagerTapeMixin, Protocol):
    """Ivy-style sequentially consistent, single-writer protocol."""

    name = "EW"
    lazy = False
    update = False
    replay_certified = True
    result_counters = ("write_faults", "ping_pongs")

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.write_faults = 0
        self.ping_pongs = 0

    def bind_interpreter(self) -> None:
        """The base tables plus the ownership directory; the tape reads
        none of it (see :class:`~repro.protocols.eager_base.EagerTapeMixin`)."""
        super().bind_interpreter()
        #: Current owner (the only processor allowed to write the page).
        self.owner: Dict[PageId, Optional[ProcId]] = {}
        #: Processors holding a (read-only or owned) valid copy.
        self.copyset: Dict[PageId, Set[ProcId]] = {}
        #: Pages each processor currently holds with write permission.
        self._writable: Set = set()
        self._last_owner: Dict[PageId, ProcId] = {}

    # -- helpers -----------------------------------------------------------

    def _cachers(self, page: PageId) -> Set[ProcId]:
        return self.copyset.setdefault(page, set())

    def _fetch(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        """Fetch a read copy through the directory manager (2-3 messages)."""
        manager = self.page_manager(page)
        owner = self.owner.get(page)
        if owner is None or manager in self._cachers(page):
            self._fetch_page_copy(proc, page, entry, server=manager)
        else:
            server = owner if owner != proc else manager
            self._fetch_page_copy(proc, page, entry, server=server, forward=manager)
        self._cachers(page).add(proc)
        if self.owner.get(page) is None:
            self.owner[page] = proc
        elif owner is not None and owner != proc:
            # A new reader exists: the owner loses write permission and
            # must re-fault (re-invalidating the readers) before its next
            # write — the invariant that every valid copy is current.
            self._writable.discard((owner, page))

    # -- access paths ---------------------------------------------------------

    def _handle_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        self._fetch(proc, page, entry)

    def write(self, proc, page, words, token) -> None:
        """Writes require exclusive ownership first (the SC write fault)."""
        entry = self.entry(proc, page)
        if (proc, page) not in self._writable:
            self._acquire_ownership(proc, page, entry)
        for word in words:
            entry.page.write(word, token)
        # No twins/diffs: the owner's copy is the page.

    def _acquire_ownership(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        self.write_faults += 1
        if self._obs_events:
            self._emit("write_fault", proc=proc, page=page)
        if entry.state != PageState.VALID:
            self._service_miss(proc, page, entry)
        # Invalidate every other copy; one notice + ack per holder.
        for holder in sorted(self._cachers(page) - {proc}):
            self.network.send(
                MessageKind.WRITE_NOTICE,
                proc,
                holder,
                control_bytes=self.costs.write_notice_bytes,
            )
            other = self.entry(holder, page)
            if other.state == PageState.VALID:
                other.state = PageState.INVALID
            self._writable.discard((holder, page))
            self.network.send(MessageKind.RELEASE_ACK, holder, proc)
        self.copyset[page] = {proc}
        previous = self._last_owner.get(page)
        if previous is not None and previous != proc:
            self.ping_pongs += 1
        self._last_owner[page] = proc
        self.owner[page] = proc
        self._writable.add((proc, page))

    # -- synchronization: pure message transport, no consistency actions ------

    def _on_acquire(self, proc: ProcId, lock: LockId) -> None:
        grantor = self.locks.grantor_of(lock)
        if grantor == proc and self.config.free_local_lock_reacquire:
            return
        manager = self.locks.manager_of(lock)
        self.network.send(MessageKind.LOCK_REQUEST, proc, manager)
        self.network.send(MessageKind.LOCK_FORWARD, manager, grantor)
        self.network.send(MessageKind.LOCK_GRANT, grantor, proc)

    def _on_release(self, proc: ProcId, lock: LockId) -> None:
        """Nothing to flush: every write already propagated at fault time."""

    def _on_barrier_arrive(self, proc: ProcId, barrier: BarrierId) -> None:
        if proc != self.barriers.master:
            self.network.send(MessageKind.BARRIER_ARRIVAL, proc, self.barriers.master)

    def _on_barrier_complete(self, barrier: BarrierId) -> None:
        for proc in self.barriers.exit_targets():
            self.network.send(MessageKind.BARRIER_EXIT, self.barriers.master, proc)
