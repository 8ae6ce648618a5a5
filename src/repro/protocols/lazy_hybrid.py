"""LH — lazy release consistency with a per-page adaptive policy.

An extension beyond the paper, in the spirit of its related work: "Munin
uses multiple consistency protocols to further reduce the number of
messages" (§6). The paper's own results motivate it — LI wins where
pages are touched rarely (pulling at the miss skips pulls nobody needs),
LU wins where invalidated pages are re-accessed immediately (PTHOR's
re-read producer pages). LH chooses per (processor, page):

- Pages start in *invalidate* mode (LI behaviour).
- A page that keeps missing right after being invalidated (two
  consecutive invalidate->miss cycles) switches to *update* mode: its
  diffs are pulled eagerly when notices arrive, as in LU.
- An update-mode page whose pulled data goes unused before the next
  notice batch arrives demotes back to invalidate mode — the pull was
  wasted.

Both paths apply exactly the same pending diffs before any access, so LH
inherits LRC's correctness; the consistency checker verifies it like any
other protocol.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.types import PageId, ProcId
from repro.config import SimConfig
from repro.memory.page import PageState
from repro.protocols.lazy_base import LazyProtocol


class _HybridPageState:
    """Per-(processor, page) policy state."""

    __slots__ = ("update_mode", "miss_streak", "used_since_pull")

    def __init__(self) -> None:
        self.update_mode = False
        self.miss_streak = 0
        self.used_since_pull = True


class LazyHybrid(LazyProtocol):
    """Adaptive lazy protocol: per-page LI/LU policy selection."""

    name = "LH"
    update = True  # pulls eagerly for update-mode pages
    replay_certified = True

    result_counters = LazyProtocol.result_counters + ("promotions", "demotions")

    #: Invalidate->miss cycles before a page promotes to update mode.
    PROMOTE_AFTER = 2

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.promotions = 0
        self.demotions = 0

    def _bind_tables(self) -> None:
        """The lazy tables plus each processor's per-page policy, which
        the hooks and the kernels' touches both read."""
        super()._bind_tables()
        self._policy: List[Dict[PageId, _HybridPageState]] = [{} for _ in range(self.n_procs)]

    def _page_policy(self, proc: ProcId, page: PageId) -> _HybridPageState:
        policy = self._policy[proc]
        if page not in policy:
            policy[page] = _HybridPageState()
        return policy[page]

    # -- access hooks (track whether pulled data gets used) ----------------

    def read(self, proc: ProcId, page: PageId, words: Sequence[int]) -> List[int]:
        self._page_policy(proc, page).used_since_pull = True
        return super().read(proc, page, words)

    def read_touch(self, proc: ProcId, page: PageId) -> None:
        self._page_policy(proc, page).used_since_pull = True
        super().read_touch(proc, page)

    def write(self, proc: ProcId, page: PageId, words: Sequence[int], token: int) -> None:
        self._page_policy(proc, page).used_since_pull = True
        super().write(proc, page, words, token)

    # -- policy decisions ---------------------------------------------------

    def _handle_miss(self, proc: ProcId, page: PageId, entry) -> None:
        if entry.state == PageState.INVALID:
            policy = self._page_policy(proc, page)
            policy.miss_streak += 1
            if not policy.update_mode and policy.miss_streak >= self.PROMOTE_AFTER:
                policy.update_mode = True
                policy.used_since_pull = True
                self.promotions += 1
        super()._handle_miss(proc, page, entry)

    def _receive(self, proc, grouped, vc_after, pull_kinds):
        # Per page: an update-mode page whose last pull went unused
        # demotes; an invalidate-mode page is invalidated. Then the
        # update-mode pages with a copy are pulled eagerly, as in LU.
        state = self.lazy_state[proc]
        pending = state.pending
        pages = self.procs[proc].pages
        lookup = pages.lookup
        missing = PageState.MISSING
        valid = PageState.VALID
        for page, interval_ids in grouped:
            page_pending = pending.get(page)
            if page_pending is None:
                pending[page] = page_pending = set()
            page_pending.update(interval_ids)
            entry = lookup(page)
            if entry is None or entry.state is missing:
                continue
            policy = self._page_policy(proc, page)
            if policy.update_mode and not policy.used_since_pull:
                policy.update_mode = False
                policy.miss_streak = 0
                self.demotions += 1
            if not policy.update_mode and entry.state is valid:
                entry.state = PageState.INVALID
        state.vc = vc_after
        eager_pages: List[PageId] = []
        for page in pending:
            if not pages.has_copy(page):
                continue
            policy = self._page_policy(proc, page)
            if policy.update_mode:
                eager_pages.append(page)
                policy.used_since_pull = False
        if eager_pages:
            h = self._collect_diffs(proc, eager_pages, pull_kinds[0], pull_kinds[1])
            self.pull_h_histogram[h] = self.pull_h_histogram.get(h, 0) + 1
            for page in eager_pages:
                pages.entry(page).state = valid
