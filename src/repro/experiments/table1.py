"""Table 1 — per-operation message costs, validated operation by operation.

For each protocol and each operation class (access miss, lock, unlock,
barrier) this builds a micro-trace that isolates the operation with known
parameters (m concurrent last modifiers, c other cachers, ...), simulates
it, and compares the simulated message count for that category against
the analytical model in :mod:`repro.simulator.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import SimConfig
from repro.simulator.costs import CostConventions
from repro.simulator.engine import Engine
from repro.trace.events import Event
from repro.trace.stream import TraceMeta, TraceStream
from repro.trace.transform import slice_events

_PAGE = 1024


@dataclass
class Table1Row:
    """One validated cell of Table 1."""

    protocol: str
    operation: str
    params: str
    simulated: int
    analytical: int

    @property
    def ok(self) -> bool:
        return self.simulated == self.analytical


def _trace(n_procs: int, events) -> TraceStream:
    trace = TraceStream(TraceMeta(n_procs=n_procs, app="table1"))
    for event in events:
        trace.append(event)
    return trace


def _miss_events_lazy(m: int):
    """p0 caches a page, m *concurrent* writers modify it, p0 re-reads.

    Each writer modifies a distinct word of the page under its own lock
    (false sharing), so the m modifying intervals are pairwise concurrent
    — m concurrent last modifiers. p0 then synchronizes with each writer
    (collecting the notices) and re-reads: the measured access miss must
    pull an aggregate diff from each of the m modifiers.
    """
    events: List[Event] = [Event.acquire(0, 0), Event.read(0, 0x0), Event.release(0, 0)]
    for i in range(m):
        proc = 1 + i
        events += [
            Event.acquire(proc, 1 + i),
            Event.write(proc, 0x10 + 4 * i),
            Event.release(proc, 1 + i),
        ]
    # p0 synchronizes with every writer (notices arrive on the grants);
    # the read is the access miss under test.
    for i in range(m):
        events += [Event.acquire(0, 1 + i), Event.release(0, 1 + i)]
    events += [Event.read(0, 0x0)]
    return events


def _measure(trace: TraceStream, protocol: str, n_procs: int, category: str, skip_events: int):
    """One category's message count over the events from ``skip_events``
    on: the whole micro-trace's count minus its prefix's, each a plain
    ``Engine.run()`` — so what the closed forms check is the tape."""
    config = SimConfig(n_procs=n_procs, page_size=_PAGE)

    def count(part: TraceStream) -> int:
        return Engine(part, config, protocol).run().category_messages()[category]

    return count(trace) - count(slice_events(trace, 0, skip_events))


def run_table1(conventions: CostConventions = CostConventions()) -> List[Table1Row]:
    """Build and validate every Table-1 cell; returns one row per cell."""
    rows: List[Table1Row] = []
    rows += _miss_rows(conventions)
    rows += _lock_rows(conventions)
    rows += _unlock_rows(conventions)
    rows += _barrier_rows(conventions)
    return rows


def _miss_rows(conv: CostConventions) -> List[Table1Row]:
    rows = []
    for m in (1, 2, 3):
        n_procs = m + 1
        events = _miss_events_lazy(m)
        trace = _trace(n_procs, events)
        for protocol in ("LI",):
            simulated = _measure(trace, protocol, n_procs, "miss", len(events) - 1)
            rows.append(
                Table1Row(protocol, "miss", f"m={m}", simulated, conv.miss_messages(protocol, m=m))
            )
    # Eager miss: 3 messages when the manager lacks a copy (owner serves),
    # 2 when it has one. Page 0's manager is p0.
    for protocol in ("EI", "EU"):
        # p1 touches page 0 (manager p0 serves zero contents: 2 messages)...
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            # ... p2 misses: manager p0 has no copy, owner is p1: 3 messages.
            Event.acquire(2, 0),
            Event.read(2, 0x0),
            Event.release(2, 0),
        ]
        trace = _trace(3, events)
        simulated = _measure(trace, protocol, 3, "miss", 3)
        rows.append(
            Table1Row(
                protocol,
                "miss",
                "manager lacks copy",
                simulated,
                conv.miss_messages(protocol, manager_has_copy=False),
            )
        )
    return rows


def _lock_rows(conv: CostConventions) -> List[Table1Row]:
    rows = []
    # Remote acquire with nothing to pull: 3 messages, all protocols.
    # Lock 3's manager (p3) takes no other part, so no hop collapses.
    for protocol in ("LI", "LU", "EI", "EU"):
        events = [
            Event.acquire(0, 3),
            Event.release(0, 3),
            Event.acquire(1, 3),
            Event.release(1, 3),
        ]
        trace = _trace(4, events)
        simulated = _measure(trace, protocol, 4, "lock", 2)
        rows.append(
            Table1Row(protocol, "lock", "remote, h=0", simulated, conv.lock_messages(protocol, h=0))
        )
    # LU pulls from h concurrent last modifiers at the acquire. The last
    # processor manages the lock and does nothing else.
    for h in (1, 2):
        n_procs = h + 3
        lock = n_procs - 1
        events: List[Event] = []
        # The measuring processor caches pages 1..h first.
        for i in range(h):
            events += [
                Event.acquire(0, lock),
                Event.read(0, _PAGE * (1 + i)),
                Event.release(0, lock),
            ]
        # h distinct writers each dirty one of those pages under the lock.
        for i in range(h):
            proc = 1 + i
            events += [
                Event.acquire(proc, lock),
                Event.write(proc, _PAGE * (1 + i) + 64),
                Event.release(proc, lock),
            ]
        measured_from = len(events)
        events += [Event.acquire(0, lock), Event.release(0, lock)]
        trace = _trace(n_procs, events)
        simulated = _measure(trace, "LU", n_procs, "lock", measured_from)
        rows.append(
            Table1Row("LU", "lock", f"remote, h={h}", simulated, conv.lock_messages("LU", h=h))
        )
    return rows


def _unlock_rows(conv: CostConventions) -> List[Table1Row]:
    rows = []
    for c in (1, 2, 3):
        n_procs = c + 2
        events: List[Event] = []
        # c other processors cache page 0 (cold reads).
        for i in range(c):
            events += [Event.read(1 + i, 0x40)]
        # The releaser writes it under a lock; its release is measured.
        events += [Event.acquire(0, 3), Event.write(0, 0x0)]
        measured_from = len(events)
        events += [Event.release(0, 3)]
        trace = _trace(n_procs, events)
        for protocol in ("LI", "LU", "EI", "EU"):
            simulated = _measure(trace, protocol, n_procs, "unlock", measured_from)
            rows.append(
                Table1Row(
                    protocol,
                    "unlock",
                    f"c={c}",
                    simulated,
                    conv.unlock_messages(protocol, c=c),
                )
            )
    return rows


def _barrier_rows(conv: CostConventions) -> List[Table1Row]:
    rows = []
    n_procs = 4
    # Clean barrier, nothing modified: 2(n-1) for every protocol.
    events = [Event.at_barrier(p, 0) for p in range(n_procs)]
    trace = _trace(n_procs, events)
    for protocol in ("LI", "LU", "EI", "EU"):
        simulated = _measure(trace, protocol, n_procs, "barrier", 0)
        rows.append(
            Table1Row(
                protocol,
                "barrier",
                "no modifications",
                simulated,
                conv.barrier_messages(protocol, n=n_procs),
            )
        )
    # One writer, two other cachers: EU pushes u=2 updates; EI sends u=2
    # invalidations; LU pulls from h=1 modifier per stale cacher.
    events = [
        Event.read(1, 0x0),
        Event.read(2, 0x0),
        Event.read(0, 0x0),
        Event.write(0, 0x0),
    ]
    measured_from = len(events)
    events += [Event.at_barrier(p, 0) for p in range(n_procs)]
    trace = _trace(n_procs, events)
    expected = {
        "LI": conv.barrier_messages("LI", n=n_procs),
        "LU": conv.barrier_messages("LU", n=n_procs, h=2),
        "EI": conv.barrier_messages("EI", n=n_procs, u=2, v=0),
        "EU": conv.barrier_messages("EU", n=n_procs, u=2),
    }
    for protocol in ("LI", "LU", "EI", "EU"):
        simulated = _measure(trace, protocol, n_procs, "barrier", measured_from)
        rows.append(
            Table1Row(protocol, "barrier", "u=2 cachers", simulated, expected[protocol])
        )
    return rows
