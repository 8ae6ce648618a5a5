"""Network substrate: message taxonomy, reliable FIFO channels, accounting.

The paper's simulator counts messages and payload bytes; it assumes
reliable FIFO point-to-point channels and no broadcast/multicast (§5.1).
This package provides exactly that instrument: a :class:`Network` of
:class:`Channel` objects that delivers :class:`Message` records and keeps
per-category counts in :class:`NetworkStats`.
"""

from repro.network.message import Message, MessageKind
from repro.network.channel import Channel
from repro.network.costs import CostModel
from repro.network.link import LinkModel, derive_network_seed, parse_link_spec
from repro.network.stats import NetworkStats, CategoryStats
from repro.network.network import Network
from repro.network.timed import NetworkTiming, SendLog, TIMED_STALL_CATEGORIES

__all__ = [
    "Message",
    "MessageKind",
    "Channel",
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
