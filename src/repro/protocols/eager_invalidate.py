"""EI — eager release consistency with an invalidate policy (§3).

At each release and barrier arrival, the flusher sends invalidations for
all modified pages to the other cachers (merged per destination) and
becomes the page owner; invalidated readers re-fetch the whole page from
the owner through the directory manager on their next access. Under
false sharing, invalidated-but-dirty cachers reconcile by shipping their
diffs to the owner — the paper's excess-invalidator ``v`` term.
"""

from __future__ import annotations

from repro.protocols.eager_base import EagerProtocol


class EagerInvalidate(EagerProtocol):
    """The paper's EI protocol."""

    name = "EI"
    update = False
    replay_certified = True
