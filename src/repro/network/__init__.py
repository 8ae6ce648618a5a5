"""Network substrate: message kinds, cost model, ledger, link model, fold.

The paper's simulator counts messages and payload bytes; it assumes
reliable FIFO point-to-point channels and no broadcast/multicast (§5.1).
This package is that instrument: a :class:`Network` charges each
:class:`MessageKind` sent, priced by a :class:`CostModel`, to the
per-category counts of :class:`NetworkStats`. Time is optional and
after the fact: a :class:`LinkModel` folded over a run's
:class:`SendLog` by :class:`NetworkTiming`, which is also where FIFO
order per link is enforced.
"""

from repro.network.message import MessageKind
from repro.network.costs import CostModel
from repro.network.link import LinkModel, derive_network_seed, parse_link_spec
from repro.network.stats import NetworkStats, CategoryStats
from repro.network.network import Network
from repro.network.timed import NetworkTiming, SendLog, TIMED_STALL_CATEGORIES

__all__ = [
    "MessageKind",
    "CostModel",
    "LinkModel",
    "NetworkStats",
    "CategoryStats",
    "Network",
    "NetworkTiming",
    "SendLog",
    "TIMED_STALL_CATEGORIES",
    "derive_network_seed",
    "parse_link_spec",
]
