"""Intervals: the unit of modification tracking in LRC.

A new interval begins at each special access executed by a processor
(§4.2). The interval records which pages were modified (and, once closed,
the diffs themselves) plus the vector timestamp assigned at creation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.types import PageId, ProcId
from repro.common.vector_clock import VectorClock
from repro.memory.diff import Diff

#: An interval is globally identified by (creator processor, index).
IntervalId = Tuple[ProcId, int]


class Interval:
    """One interval of one processor's execution."""

    __slots__ = ("proc", "index", "vc", "diffs", "closed", "_modified")

    def __init__(self, proc: ProcId, index: int, vc: VectorClock):
        self.proc = proc
        self.index = index
        #: Timestamp at interval creation: ``vc[proc] == index`` and the
        #: other entries name the most recent foreign intervals performed
        #: at ``proc`` when this interval began.
        self.vc = vc
        if vc[proc] != index:
            raise ValueError(
                f"interval p{proc}.i{index} timestamp has own entry {vc[proc]}"
            )
        #: Diffs produced in this interval, one per modified page.
        self.diffs: Dict[PageId, Diff] = {}
        self.closed = False
        self._modified: Optional[Tuple[PageId, ...]] = None

    @property
    def id(self) -> IntervalId:
        return (self.proc, self.index)

    def add_diff(self, diff: Diff) -> None:
        """Attach the diff for one page modified in this interval."""
        if self.closed:
            raise ValueError(f"interval {self.id} is closed")
        if diff.page in self.diffs:
            raise ValueError(f"interval {self.id} already has a diff for page {diff.page}")
        if (diff.creator, diff.interval) != self.id:
            raise ValueError(f"diff {diff!r} does not belong to interval {self.id}")
        self.diffs[diff.page] = diff

    def close(self) -> None:
        """Seal the interval; no more diffs may be added."""
        self.closed = True
        self._modified = tuple(self.diffs)

    def diff_for(self, page: PageId) -> Optional[Diff]:
        return self.diffs.get(page)

    @property
    def modified_pages(self) -> Tuple[PageId, ...]:
        modified = self._modified
        if modified is not None:
            return modified
        return tuple(self.diffs)

    def precedes(self, other: "Interval") -> bool:
        """True if this interval happened-before ``other`` (hb1 on intervals).

        Interval (q, k) precedes interval ``other`` of processor p exactly
        when other's timestamp covers it: ``other.vc[q] >= k`` — all of q's
        intervals up to k performed at p before ``other`` began — or they
        are successive intervals of the same processor.
        """
        if self.proc == other.proc:
            return self.index < other.index
        return other.vc[self.proc] >= self.index

    def __repr__(self) -> str:
        return f"Interval(p{self.proc}.i{self.index}, pages={list(self.diffs)})"
