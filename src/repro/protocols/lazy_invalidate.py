"""LI — lazy release consistency with an invalidate policy (§4.3.2).

"In the case of an invalidate protocol, the acquiring processor
invalidates all pages in its cache for which it received write-notices."
Invalidations are free — they are implied by the piggybacked notices —
and the diffs are pulled only at the next access miss.
"""

from __future__ import annotations

from repro.memory.page import PageState
from repro.protocols.lazy_base import LazyProtocol


class LazyInvalidate(LazyProtocol):
    """The paper's LI protocol."""

    name = "LI"
    update = False
    replay_certified = True

    def _receive(self, proc, grouped, vc_after, pull_kinds):
        # The base's tracking loop plus the invalidation: one
        # pending/page-table operation per page. The stale copy is kept:
        # a later miss needs only diffs (§4.3.3).
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
