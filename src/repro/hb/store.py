"""The interval store: every closed interval, keyed by (creator, index).

In a real DSM each processor retains its own intervals and diffs (the
paper assumes infinite memory, §5.1; garbage collection came later, in
TreadMarks). In the simulator a single store holds them all; protocol
code only ever *reads* intervals it has legitimately learned about
through write notices, and diff payloads are charged to the network when
they are fetched from their creators.

The skeleton (:func:`repro.hb.skeleton.build_skeleton`), which every
lazy loop replays, closes intervals through :meth:`IntervalStore.close`
and takes notice batches from :meth:`IntervalStore.gap`. The store
doubles as the lazy protocols' **write-notice index**,
maintained incrementally at :meth:`add` time:

* ``notice_runs`` — per creator, the cached tuple of
  :class:`~repro.hb.write_notice.WriteNotice` objects of each interval,
  so computing the notices for a vector-clock gap is pure list
  concatenation (no interval traversal, no notice re-allocation).
* ``page_mods`` — per page, every modifying interval as a *mod record*
  ``(vc_sum, creator, index, vc_entries, diff)``. The leading cached
  vc-sum makes the tuple sort directly into happened-before-compatible
  (topological) order, and the cached entry tuple answers ``precedes``
  with one integer compare — the basis of the fetch planner in
  :mod:`repro.hb.index`.
* ``ids`` — per creator, index -> the one ``(creator, index)``
  tuple of each *modifying* interval (the ``page_mods`` key). The store
  is its only owner: notice batches, pending sets and fetch-plan keys
  hold that object instead of a copy, so their memory scales with the
  intervals tracked, not with receivers x intervals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.types import PageId, ProcId
from repro.common.vector_clock import VectorClock
from repro.hb.interval import Interval, IntervalId
from repro.hb.write_notice import WriteNotice
from repro.memory.diff import Diff

#: One modifying interval of one page: (vc_sum, creator, index, vc entries, diff).
#: Sorting mod records sorts by vc_sum first — a topological key for hb
#: (an interval's timestamp pointwise dominates its hb-predecessors').
ModRecord = Tuple[int, ProcId, int, Tuple[int, ...], "object"]


class IntervalStore:
    """All closed intervals of a simulation run."""

    def __init__(self, n_procs: int):
        self.n_procs = n_procs
        self._by_proc: Dict[ProcId, List[Interval]] = {p: [] for p in range(n_procs)}
        self._notices_by_proc: List[List[Tuple[WriteNotice, ...]]] = [
            [] for _ in range(n_procs)
        ]
        self._page_mods: Dict[PageId, Dict[IntervalId, ModRecord]] = {}
        #: Per creator, interval index -> the interval's id tuple, for
        #: modifying intervals only. Public so hot loops read
        #: ``ids[creator][index]`` directly; only :meth:`add` writes it.
        self.ids: List[Dict[int, IntervalId]] = [{} for _ in range(n_procs)]

    def add(self, interval: Interval) -> None:
        """Register a newly closed interval; indices must be dense per proc."""
        existing = self._by_proc[interval.proc]
        if interval.index != len(existing):
            raise ValueError(
                f"interval p{interval.proc}.i{interval.index} out of order; "
                f"expected index {len(existing)}"
            )
        existing.append(interval)
        proc, index = interval.proc, interval.index
        diffs = interval.diffs
        if not diffs:
            self._notices_by_proc[proc].append(())
            return
        # tuple.__new__ skips WriteNotice's argument-binding frame; the
        # notice layout is (creator, interval, page).
        notice_new = tuple.__new__
        self._notices_by_proc[proc].append(
            tuple([notice_new(WriteNotice, (proc, index, page)) for page in diffs])
        )
        entries = interval.vc._entries
        vc_sum = sum(entries)
        page_mods = self._page_mods
        key = self.ids[proc][index] = (proc, index)
        for page, diff in diffs.items():
            mods = page_mods.get(page)
            if mods is None:
                page_mods[page] = mods = {}
            mods[key] = (vc_sum, proc, index, entries, diff)

    def add_empty(self, proc: ProcId, index: int, vc: VectorClock) -> None:
        """Register a closed interval that modified nothing.

        Empty intervals exist only to advance the vector clocks — no
        notice ever names them and no diff is ever fetched from them —
        so :meth:`close` stores just the timestamp and the
        :class:`Interval` object is materialized lazily if anything ever
        asks for it (most intervals of a real trace are empty: every
        special access closes one).
        """
        existing = self._by_proc[proc]
        if index != len(existing):
            raise ValueError(
                f"interval p{proc}.i{index} out of order; "
                f"expected index {len(existing)}"
            )
        existing.append(vc)
        self._notices_by_proc[proc].append(())

    def _materialize(self, proc: ProcId, index: int) -> Interval:
        """The interval at ``(proc, index)``, building it if only its
        timestamp was stored (see :meth:`add_empty`)."""
        stored = self._by_proc[proc][index]
        if stored.__class__ is VectorClock:
            interval = Interval(proc, index, stored)
            interval.close()
            self._by_proc[proc][index] = interval
            return interval
        return stored

    def get(self, interval_id: IntervalId) -> Interval:
        proc, index = interval_id
        intervals = self._by_proc[proc]
        if not 0 <= index < len(intervals):
            raise KeyError(f"unknown interval p{proc}.i{index}")
        interval = intervals[index]
        if interval.__class__ is VectorClock:
            return self._materialize(proc, index)
        return interval

    def latest_index(self, proc: ProcId) -> int:
        """Index of ``proc``'s most recent closed interval, or -1."""
        return len(self._by_proc[proc]) - 1

    def intervals_of(self, proc: ProcId, first: int, last: int) -> List[Interval]:
        """Closed intervals ``first..last`` (inclusive) of ``proc``."""
        intervals = self._by_proc[proc]
        if first < 0 or last >= len(intervals):
            raise KeyError(
                f"interval range p{proc}.i{first}..i{last} outside "
                f"[0, {len(intervals)})"
            )
        return [
            self._materialize(proc, i) if intervals[i].__class__ is VectorClock
            else intervals[i]
            for i in range(first, last + 1)
        ]

    def close(
        self, proc: ProcId, prior_vc: VectorClock, pages: Iterable[Tuple[PageId, Dict[int, int]]]
    ) -> Tuple[int, VectorClock, Optional[Interval]]:
        """Close ``proc``'s open interval: the one close of the skeleton,
        which every lazy loop replays.

        ``prior_vc`` is ``proc``'s clock before the close; ``pages`` pairs
        each page the interval modified with its written words (each
        dict owned by the new diff from here on), in first-write order —
        the order of the interval's diffs, hence of its notices. Returns
        ``(index, vc, interval)``, ``interval`` None when nothing was
        modified (stored as its timestamp alone, see :meth:`add_empty`).
        """
        index = prior_vc._entries[proc] + 1
        vc = prior_vc.advanced(proc, index)
        interval: Optional[Interval] = None
        for page, words in pages:
            if interval is None:
                interval = Interval(proc, index, vc)
            interval.add_diff(Diff(page, proc, index, words, copy=False))
        if interval is None:
            self.add_empty(proc, index, vc)
        else:
            interval.close()
            self.add(interval)
        return index, vc, interval

    # -- write-notice index -------------------------------------------------

    def gap(self, sender_vc: VectorClock, receiver_vc: VectorClock) -> Tuple[int, tuple]:
        """The notices for every interval the sender knows and the receiver
        lacks, as :meth:`group` returns them.

        Concatenates the cached per-interval notice tuples over the
        vector-clock gap — the indexed equivalent of walking
        :meth:`intervals_of` and building a notice per modified page,
        as the test oracle's ``ReferenceStore`` does.
        """
        notices: List[WriteNotice] = []
        mine = sender_vc.entries()
        theirs = receiver_vc.entries()
        if mine == theirs:
            return 0, ()
        extend = notices.extend
        notices_by_proc = self._notices_by_proc
        # Inlined VectorClock.missing_from — this runs per lock grant
        # and per barrier arrival/exit.
        for creator, last in enumerate(mine):
            first = theirs[creator] + 1
            if last < first:
                continue
            per_interval = notices_by_proc[creator]
            if last >= len(per_interval):
                raise KeyError(
                    f"interval range p{creator}.i{first}..i{last} outside "
                    f"[0, {len(per_interval)})"
                )
            for cached in per_interval[first : last + 1]:
                if cached:
                    extend(cached)
        return self.group(notices)

    def group(self, notices: List[WriteNotice]) -> Tuple[int, tuple]:
        """A notice batch as ``(count, ((page, interval_ids), ...))``.

        Pages appear in first-occurrence order over ``notices`` — the
        order a receiver adds them to its pending map. Notices whose
        creator is the receiver never appear in a gap (a processor's own
        entry always covers its own intervals), so nothing is filtered;
        the count feeds the wire-byte and ``notices_sent`` accounting.
        Each interval id is the store's own object (``ids``), not a copy
        per receiver.
        """
        if not notices:
            return 0, ()
        interval_ids = self.ids
        by_page: Dict[PageId, List[IntervalId]] = {}
        for creator, index, page in notices:
            page_ids = by_page.get(page)
            if page_ids is None:
                by_page[page] = page_ids = []
            page_ids.append(interval_ids[creator][index])
        return len(notices), tuple((page, tuple(page_ids)) for page, page_ids in by_page.items())

    def page_mods(self, page: PageId) -> Dict[IntervalId, ModRecord]:
        """The mod records of every interval that modified ``page``."""
        return self._page_mods.get(page, {})

    def __iter__(self) -> Iterator[Interval]:
        for proc, intervals in self._by_proc.items():
            for index in range(len(intervals)):
                yield self._materialize(proc, index)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_proc.values())
