"""Event-level happened-before over a trace.

Definition 2 of the paper: program order, plus release->acquire on the
same lock (the acquire that returns the value the release wrote — in a
global SC trace, the next acquire of that lock), plus transitivity.
Barriers act as a release by every arriver followed by an acquire by every
leaver.

:class:`HbGraph` assigns every event a vector timestamp (per-processor
event counters) such that ``e1 hb e2  iff  clock(e1) <= clock(e2)``
pointwise with e1's own entry, i.e. ``clock(e2)[e1.proc] >= position of e1
in p's program order``. This is the analysis-side oracle used by the
consistency checker and by the hb property tests; the *protocols* use the
interval-level clocks from :mod:`repro.hb.interval` instead, exactly as in
the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import TraceError
from repro.common.types import BarrierId, LockId, ProcId
from repro.trace.events import Event, EventType
from repro.trace.stream import TraceStream

#: An event's hb clock: tuple of per-processor program-order counters.
EventClock = Tuple[int, ...]


class HbGraph:
    """Vector timestamps for every event of a trace."""

    def __init__(self, trace: TraceStream):
        self.trace = trace
        self.n_procs = trace.n_procs
        #: clock[i] is the timestamp of trace event i, *after* the event.
        self.clocks: List[EventClock] = []
        #: position[i] is event i's index in its processor's program order.
        self.positions: List[int] = []
        self._build()

    def _build(self) -> None:
        n = self.n_procs
        proc_clock: List[List[int]] = [[0] * n for _ in range(n)]
        proc_pos = [0] * n
        lock_clock: Dict[LockId, List[int]] = {}
        barrier_wait: Dict[BarrierId, List[ProcId]] = {}
        barrier_merge: Dict[BarrierId, List[int]] = {}
        pending_exit: Dict[ProcId, List[int]] = {}

        for event in self.trace:
            p = event.proc
            clock = proc_clock[p]

            # A processor leaves a barrier when the episode completes; the
            # merged clock is applied to its *next* event.
            if p in pending_exit:
                merged = pending_exit.pop(p)
                for q in range(n):
                    clock[q] = max(clock[q], merged[q])

            if event.type == EventType.ACQUIRE:
                assert event.lock is not None
                incoming = lock_clock.get(event.lock)
                if incoming is not None:
                    for q in range(n):
                        clock[q] = max(clock[q], incoming[q])
            elif event.type == EventType.BARRIER:
                assert event.barrier is not None
                waiting = barrier_wait.setdefault(event.barrier, [])
                merged = barrier_merge.setdefault(event.barrier, [0] * n)
                waiting.append(p)

            proc_pos[p] += 1
            clock[p] = proc_pos[p]
            self.positions.append(proc_pos[p] - 1)
            self.clocks.append(tuple(clock))

            if event.type == EventType.RELEASE:
                assert event.lock is not None
                lock_clock[event.lock] = list(clock)
            elif event.type == EventType.BARRIER:
                assert event.barrier is not None
                merged = barrier_merge[event.barrier]
                for q in range(n):
                    merged[q] = max(merged[q], clock[q])
                waiting = barrier_wait[event.barrier]
                if len(waiting) == n:
                    for q in waiting:
                        pending_exit[q] = list(merged)
                    barrier_wait[event.barrier] = []
                    barrier_merge[event.barrier] = [0] * n

    # -- queries ---------------------------------------------------------------

    def happens_before(self, first_seq: int, second_seq: int) -> bool:
        """True if event ``first_seq`` hb-precedes event ``second_seq``."""
        if first_seq == second_seq:
            return False
        first = self.trace[first_seq]
        second = self.trace[second_seq]
        if first.proc == second.proc:
            return first_seq < second_seq
        # first performed-at second iff second's clock has seen first's
        # program-order position.
        return self.clocks[second_seq][first.proc] >= self.positions[first_seq] + 1

    def concurrent(self, first_seq: int, second_seq: int) -> bool:
        return not self.happens_before(first_seq, second_seq) and not self.happens_before(
            second_seq, first_seq
        )

    def races(self, max_reported: int = 100) -> List[Tuple[int, int]]:
        """Pairs of conflicting, hb-concurrent ordinary accesses.

        Two accesses conflict when they touch an overlapping byte range
        and at least one is a write (§2). A properly labeled program has
        no races; the workload tests assert this. Quadratic in the number
        of accesses per byte, so intended for small traces and tests.
        """
        by_byte_writes: Dict[int, List[int]] = {}
        by_byte_reads: Dict[int, List[int]] = {}
        found: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for event in self.trace:
            if not event.type.is_ordinary:
                continue
            assert event.addr is not None and event.size is not None
            for byte in range(event.addr, event.addr + event.size):
                conflicting = list(by_byte_writes.get(byte, []))
                if event.type == EventType.WRITE:
                    conflicting += by_byte_reads.get(byte, [])
                for other_seq in conflicting:
                    if self.trace[other_seq].proc == event.proc:
                        continue
                    pair = (other_seq, event.seq)
                    if pair in seen:
                        continue
                    if self.concurrent(other_seq, event.seq):
                        seen.add(pair)
                        found.append(pair)
                        if len(found) >= max_reported:
                            return found
                bucket = by_byte_writes if event.type == EventType.WRITE else by_byte_reads
                bucket.setdefault(byte, []).append(event.seq)
        return found
