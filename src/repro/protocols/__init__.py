"""The four coherence protocols compared in the paper.

- :class:`LazyInvalidate` (LI) and :class:`LazyUpdate` (LU) implement
  *lazy release consistency*, the paper's contribution (§4): write
  notices travel with synchronization along happened-before; diffs are
  pulled only when needed.
- :class:`EagerInvalidate` (EI) and :class:`EagerUpdate` (EU) implement
  eager release consistency after Munin's write-shared protocol (§3):
  at each release, modifications (or invalidations) are pushed to every
  other cacher of each modified page.

All four are multiple-writer protocols built on word-granularity diffs
and carry real data values, so simulations are checkable end-to-end.
"""

from repro.protocols.base import Protocol, ProcState
from repro.protocols.lazy_base import LazyProtocol
from repro.protocols.lazy_invalidate import LazyInvalidate
from repro.protocols.lazy_update import LazyUpdate
from repro.protocols.eager_base import EagerProtocol
from repro.protocols.eager_invalidate import EagerInvalidate
from repro.protocols.eager_update import EagerUpdate
from repro.protocols.exclusive_writer import ExclusiveWriter
from repro.protocols.registry import (
    EXTRA_PROTOCOLS,
    PROTOCOLS,
    all_protocol_names,
    protocol_class,
    protocol_names,
)

__all__ = [
    "Protocol",
    "ProcState",
    "LazyProtocol",
    "LazyInvalidate",
    "LazyUpdate",
    "EagerProtocol",
    "EagerInvalidate",
    "EagerUpdate",
    "ExclusiveWriter",
    "PROTOCOLS",
    "EXTRA_PROTOCOLS",
    "protocol_class",
    "protocol_names",
    "all_protocol_names",
]
