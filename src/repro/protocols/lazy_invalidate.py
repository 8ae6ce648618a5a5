"""LI — lazy release consistency with an invalidate policy (§4.3.2).

"In the case of an invalidate protocol, the acquiring processor
invalidates all pages in its cache for which it received write-notices."
Invalidations are free — they are implied by the piggybacked notices —
and the diffs are pulled only at the next access miss.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.types import ProcId
from repro.common.vector_clock import VectorClock
from repro.hb.write_notice import WriteNotice
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.lazy_base import LazyProtocol


class LazyInvalidate(LazyProtocol):
    """The paper's LI protocol."""

    name = "LI"
    update = False
    replay_certified = True

    def _on_notice(self, proc: ProcId, notice: WriteNotice) -> None:
        # Runs once per received notice: reach into the page table's dict
        # directly (PageTable.lookup, inlined).
        entry = self.procs[proc].pages._entries.get(notice.page)
        if entry is not None and entry.state is PageState.VALID:
            # The stale copy is kept: a later miss needs only diffs (§4.3.3).
            entry.state = PageState.INVALID

    def _receive_notices(
        self,
        proc: ProcId,
        notices: List[WriteNotice],
        sender_vc: VectorClock,
        pull_kinds: Tuple[MessageKind, MessageKind],
    ) -> None:
        if self._has_notice_hook and type(self)._on_notice is not LazyInvalidate._on_notice:
            # A subclass (e.g. a test double) replaced the hook: honor it.
            super()._receive_notices(proc, notices, sender_vc, pull_kinds)
            return
        # Standard LI: the invalidation above is inlined into the
        # pending-tracking loop, saving a method call per notice — the
        # hottest loop of the protocol (every notice of every lock grant
        # and barrier exit passes through here).
        state = self.lazy_state[proc]
        pending = state.pending
        pending_get = pending.get
        entries_get = self.procs[proc].pages._entries.get
        valid = PageState.VALID
        invalid = PageState.INVALID
        interval_ids = self.store.ids
        for creator, index, page in notices:
            if creator == proc:
                continue
            page_pending = pending_get(page)
            if page_pending is None:
                pending[page] = page_pending = set()
            page_pending.add(interval_ids[creator][index])
            entry = entries_get(page)
            if entry is not None and entry.state is valid:
                entry.state = invalid
        state.vc = state.vc.merged(sender_vc)
        self._after_notices(proc, pull_kinds)

    def _after_notices(self, proc: ProcId, pull_kinds: Tuple[MessageKind, MessageKind]) -> None:
        """LI defers all data movement to the next access miss."""

    def _t_receive(self, proc, grouped, vc_after, pull_kinds):
        # Tape twin of the inlined loop above: one pending/page-table
        # operation per page instead of per notice.
        state = self.lazy_state[proc]
        if grouped:
            pending = state.pending
            pending_get = pending.get
            entries_get = self.procs[proc].pages._entries.get
            valid = PageState.VALID
            invalid = PageState.INVALID
            for page, interval_ids in grouped:
                page_pending = pending_get(page)
                if page_pending is None:
                    pending[page] = page_pending = set()
                page_pending.update(interval_ids)
                entry = entries_get(page)
                if entry is not None and entry.state is valid:
                    entry.state = invalid
        state.vc = vc_after
        self._after_notices(proc, pull_kinds)
