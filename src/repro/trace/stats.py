"""Sharing statistics over a trace at a given page size.

These are the quantities the paper uses to *explain* its results (§5.3,
§5.8): how many processors touch each page, how many write it, how much of
the sharing is *false* (distinct processors writing disjoint parts of the
same page with no synchronization relating them is approximated here by
"distinct writers per page whose written word sets are disjoint").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.common.types import PageId, ProcId, check_page_size, page_of, words_in_range
from repro.trace.events import EventType
from repro.trace.stream import TraceStream


@dataclass
class PageSharing:
    """Per-page sharing profile."""

    readers: Set[ProcId] = field(default_factory=set)
    writers: Set[ProcId] = field(default_factory=set)
    words_written: Dict[ProcId, Set[int]] = field(default_factory=dict)
    accesses: int = 0

    @property
    def sharers(self) -> Set[ProcId]:
        return self.readers | self.writers

    @property
    def is_write_shared(self) -> bool:
        """More than one processor writes the page."""
        return len(self.writers) > 1

    @property
    def is_falsely_write_shared(self) -> bool:
        """Multiple writers whose written word sets are pairwise disjoint.

        A conservative indicator: such pages ping-pong under an
        exclusive-writer or eager-invalidate protocol even though no word
        is actually contended.
        """
        if len(self.writers) <= 1:
            return False
        seen: Set[int] = set()
        for words in self.words_written.values():
            if seen & words:
                return False
            seen |= words
        return True


@dataclass
class TraceStats:
    """Whole-trace sharing statistics at one page size."""

    page_size: int
    n_pages_touched: int
    n_reads: int
    n_writes: int
    n_acquires: int
    n_releases: int
    n_barrier_arrivals: int
    mean_sharers_per_page: float
    write_shared_pages: int
    falsely_write_shared_pages: int
    pages: Dict[PageId, PageSharing]

    @property
    def false_sharing_fraction(self) -> float:
        """Fraction of write-shared pages whose write sharing is false."""
        if self.write_shared_pages == 0:
            return 0.0
        return self.falsely_write_shared_pages / self.write_shared_pages


def compute_stats(trace: TraceStream, page_size: int) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace`` at ``page_size``."""
    check_page_size(page_size)
    pages: Dict[PageId, PageSharing] = {}
    n_reads = n_writes = n_acquires = n_releases = n_barriers = 0

    for event in trace:
        if event.type == EventType.ACQUIRE:
            n_acquires += 1
            continue
        if event.type == EventType.RELEASE:
            n_releases += 1
            continue
        if event.type == EventType.BARRIER:
            n_barriers += 1
            continue

        assert event.addr is not None and event.size is not None
        if event.type == EventType.READ:
            n_reads += 1
        else:
            n_writes += 1
        remaining = event.size
        addr = event.addr
        while remaining > 0:
            page_id = page_of(addr, page_size)
            sharing = pages.setdefault(page_id, PageSharing())
            sharing.accesses += 1
            words = words_in_range(addr, remaining, page_size)
            if event.type == EventType.READ:
                sharing.readers.add(event.proc)
            else:
                sharing.writers.add(event.proc)
                sharing.words_written.setdefault(event.proc, set()).update(words)
            covered = (page_id + 1) * page_size - addr
            addr += covered
            remaining -= covered

    write_shared = sum(1 for s in pages.values() if s.is_write_shared)
    falsely = sum(1 for s in pages.values() if s.is_falsely_write_shared)
    mean_sharers = (
        sum(len(s.sharers) for s in pages.values()) / len(pages) if pages else 0.0
    )
    return TraceStats(
        page_size=page_size,
        n_pages_touched=len(pages),
        n_reads=n_reads,
        n_writes=n_writes,
        n_acquires=n_acquires,
        n_releases=n_releases,
        n_barrier_arrivals=n_barriers,
        mean_sharers_per_page=mean_sharers,
        write_shared_pages=write_shared,
        falsely_write_shared_pages=falsely,
        pages=pages,
    )
