"""HLRC — home-based lazy release consistency.

A forward-looking extension: the protocol Zhou, Iftode & Li later showed
to be the practical alternative to TreadMarks-style ("homeless") LRC.
Write-notice propagation is identical to LRC — vector-timestamped
intervals, notices piggybacked on lock grants and barrier messages,
invalidation on receipt. The *data* movement differs:

- Every page has a statically assigned **home** (its manager). When an
  interval closes with modifications, the diffs are immediately flushed
  to each page's home, which merges them into its authoritative copy.
  Having flushed, the writer can discard the diff — HLRC's memory
  advantage over LRC, visible in the ``retained_diff_bytes`` counters.
- An access miss fetches the **whole page from its home** — always two
  messages, one round trip, regardless of how many processors modified
  it. No concurrent-last-modifier bookkeeping, no diff accumulation; the
  cost is full-page transfers where LRC ships diffs.

Correctness: any write ordered (hb) before a read was flushed at the
writer's interval close, which precedes the reader's notice receipt and
therefore its re-fetch — the home copy a reader receives always contains
every modification the reader is entitled to see (plus, possibly,
concurrent writers' words, which a race-free program does not read).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.types import PageId, ProcId
from repro.config import SimConfig
from repro.hb.interval import Interval
from repro.memory.page import PageEntry, PageState
from repro.network.message import MessageKind
from repro.protocols.lazy_base import LazyProtocol


class HomeLazy(LazyProtocol):
    """Home-based LRC (invalidate policy)."""

    name = "HLRC"
    update = False
    replay_certified = True
    result_counters = LazyProtocol.result_counters + ("home_flushes",)

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.home_flushes = 0

    # -- home flushing -------------------------------------------------------

    def _on_close(self, proc: ProcId, interval: Interval) -> None:
        """Push the closed interval's diffs to each page's home, then
        drop them — on every path, the tape kernels' closes included."""
        by_home: Dict[ProcId, List[PageId]] = {}
        for page in interval.modified_pages:
            by_home.setdefault(self.page_manager(page), []).append(page)
        for home in sorted(by_home):
            payload = 0
            for page in by_home[home]:
                diff = interval.diffs[page]
                payload += diff.wire_bytes(self.costs)
                if not self._value_free:
                    home_entry = self.entry(home, page)
                    diff.apply_to(home_entry.page.words)
                    home_entry.page.words.update(home_entry.dirty_words)
            self.network.send(
                MessageKind.UPDATE, proc, home, payload_bytes=payload
            )
            self.network.send(MessageKind.RELEASE_ACK, home, proc)
            self.home_flushes += 1
            if self._obs_events:
                self._emit(
                    "home_flush",
                    proc=proc,
                    server=home,
                    count=len(by_home[home]),
                    bytes=payload,
                )
        # Flushed diffs need not be retained (HLRC's memory advantage);
        # the interval objects keep them only for the simulator's oracle.
        self._drop_retained(interval, interval.modified_pages)

    # -- notices: invalidate, except at the page's home ------------------------

    def _receive(self, proc, grouped, vc_after, pull_kinds):
        # A home page is skipped outright: the home already holds the
        # flushed modification, so nothing is pending and its copy stays.
        state = self.lazy_state[proc]
        if grouped:
            pending = state.pending
            pending_get = pending.get
            lookup = self.procs[proc].pages.lookup
            n_procs = self.n_procs
            valid = PageState.VALID
            invalid = PageState.INVALID
            for page, interval_ids in grouped:
                if page % n_procs == proc:  # page_manager, inlined
                    continue
                page_pending = pending_get(page)
                if page_pending is None:
                    pending[page] = page_pending = set()
                page_pending.update(interval_ids)
                entry = lookup(page)
                if entry is not None and entry.state is valid:
                    entry.state = invalid
        state.vc = vc_after
        self._after_notices(proc, pull_kinds)

    # -- misses: one round trip to the home -------------------------------------

    def _handle_miss(self, proc: ProcId, page: PageId, entry: PageEntry) -> None:
        self.lazy_state[proc].pending.pop(page, None)
        home = self.page_manager(page)
        self._fetch_page_copy(proc, page, entry, server=home)
