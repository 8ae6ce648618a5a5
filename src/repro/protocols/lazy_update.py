"""LU — lazy release consistency with an update policy (§4.3.2).

"In the case of an update protocol, the acquiring processor updates those
pages": on receiving write notices (at an acquire or a barrier exit), LU
immediately pulls the diffs for every page it caches from the concurrent
last modifiers — the ``h`` extra lock-time messages of Table 1 — so its
cached pages never go stale and the only remaining misses are cold.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.types import PageId, ProcId
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.lazy_base import LazyProtocol

_MISSING = PageState.MISSING


class LazyUpdate(LazyProtocol):
    """The paper's LU protocol."""

    name = "LU"
    update = True
    # LU's only divergence from the base is _after_notices, which the
    # base's _receive calls on every loop.
    replay_certified = True

    def _after_notices(self, proc: ProcId, pull_kinds: Tuple[MessageKind, MessageKind]) -> None:
        state = self.lazy_state[proc]
        if not state.pending:
            return
        # Inlined PageTable.has_copy — this scans the pending map on
        # every notice batch (each acquire and barrier exit).
        entries = self.procs[proc].pages._entries
        missing = _MISSING
        cached: List[PageId] = []
        for page in state.pending:
            entry = entries.get(page)
            if entry is not None and entry.state is not missing:
                cached.append(page)
        if cached:
            h = self._collect_diffs(proc, cached, pull_kinds[0], pull_kinds[1])
            self.pull_h_histogram[h] = self.pull_h_histogram.get(h, 0) + 1
