"""Message taxonomy for the DSM protocols.

Each protocol action that crosses the interconnect is one
:meth:`Network.send <repro.network.network.Network.send>` of a
:class:`MessageKind`. The enumeration covers every message type the
protocols use; the accounting layer groups kinds into the paper's four
operation categories (access miss, lock, unlock, barrier).
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    """Every kind of protocol message, tagged with its accounting category."""

    # -- access-miss servicing ------------------------------------------------
    PAGE_REQUEST = ("miss", "request a page copy from the directory manager")
    PAGE_FORWARD = ("miss", "directory manager forwards the request to the owner")
    PAGE_REPLY = ("miss", "owner sends the page to the faulting processor")
    DIFF_REQUEST = ("miss", "lazy: ask a concurrent last modifier for diffs")
    DIFF_REPLY = ("miss", "lazy: diffs returned to the faulting processor")

    # -- lock transfer ----------------------------------------------------------
    LOCK_REQUEST = ("lock", "ask the lock's static manager for the lock")
    LOCK_FORWARD = ("lock", "manager forwards the request to the current holder")
    LOCK_GRANT = ("lock", "holder grants the lock (lazy: carries write notices)")
    LOCK_NOTICE = ("lock", "lazy: notices sent separately when piggybacking is off")
    ACQUIRE_DIFF_REQUEST = ("lock", "LU: pull diffs for cached pages at acquire")
    ACQUIRE_DIFF_REPLY = ("lock", "LU: diffs pulled at acquire")

    # -- release-time (unlock) propagation, eager only ---------------------------
    WRITE_NOTICE = ("unlock", "EI: invalidation sent to another cacher at release")
    UPDATE = ("unlock", "EU: diff sent to another cacher at release")
    RELEASE_ACK = ("unlock", "acknowledgment of a release-time notice/update")
    OWNER_RECONCILE = ("unlock", "EI: excess invalidator ships its diff to the owner")

    # -- barriers -------------------------------------------------------------
    BARRIER_ARRIVAL = ("barrier", "client arrival at the barrier master")
    BARRIER_EXIT = ("barrier", "master releases a client (lazy: carries notices)")
    BARRIER_NOTICE = ("barrier", "EI: invalidation sent to another cacher at a barrier")
    BARRIER_UPDATE = ("barrier", "update sent/pulled for barrier-time propagation")
    BARRIER_UPDATE_REQUEST = ("barrier", "LU: pull diffs after barrier exit")
    BARRIER_ACK = ("barrier", "acknowledgment of barrier-time notice/update")
    BARRIER_RECONCILE = ("barrier", "EI: excess invalidator ships diff to owner")

    def __init__(self, category: str, doc: str):
        self.category = category
        self.doc = doc

    @property
    def is_ack(self) -> bool:
        """True for pure acknowledgments (optionally excluded from counts)."""
        return self in (MessageKind.RELEASE_ACK, MessageKind.BARRIER_ACK)


# Dense per-kind index (``kind.slot``): lets hot accounting paths use
# list indexing instead of enum-keyed dict lookups (Enum.__hash__ is a
# Python-level call and shows up in profiles of Network.send).
for _slot, _kind in enumerate(MessageKind):
    _kind.slot = _slot
del _slot, _kind

#: ``kind.name`` by ``kind.slot``, for the same reason: ``Enum.name`` is
#: a Python-level descriptor, and span recording names every message.
KIND_NAMES = tuple(kind.name for kind in MessageKind)


#: The paper's four operation categories, in Table-1 column order.
CATEGORIES = ("miss", "lock", "unlock", "barrier")

#: The (notice, update, ack, reconcile) kinds of an eager flush, by
#: context: a release's, and a barrier arrival's.
UNLOCK_FLUSH_KINDS = (
    MessageKind.WRITE_NOTICE,
    MessageKind.UPDATE,
    MessageKind.RELEASE_ACK,
    MessageKind.OWNER_RECONCILE,
)
BARRIER_FLUSH_KINDS = (
    MessageKind.BARRIER_NOTICE,
    MessageKind.BARRIER_UPDATE,
    MessageKind.BARRIER_ACK,
    MessageKind.BARRIER_RECONCILE,
)
