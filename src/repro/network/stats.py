"""Message and data accounting, grouped the way the paper reports it.

:class:`NetworkStats` keeps a per-:class:`~repro.network.message.MessageKind`
ledger, written by :class:`~repro.network.network.Network`, and can
aggregate it into the four Table-1 categories (miss, lock, unlock,
barrier) and into the headline totals plotted in Figures 5-14 (total
messages, total data kbytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.network.message import CATEGORIES, MessageKind


@dataclass
class CategoryStats:
    """Counters for one accounting bucket.

    ``data_bytes`` is what the figures plot (per the cost model's
    inclusion flags); ``control_bytes`` always tracks the raw protocol
    metadata so its overhead stays observable either way.
    """

    messages: int = 0
    data_bytes: int = 0
    control_bytes: int = 0

    def add(self, other: "CategoryStats") -> None:
        self.messages += other.messages
        self.data_bytes += other.data_bytes
        self.control_bytes += other.control_bytes


class NetworkStats:
    """Ledger of every message sent, bucketed by kind and category."""

    def __init__(self) -> None:
        self.by_kind: Dict[MessageKind, CategoryStats] = {
            kind: CategoryStats() for kind in MessageKind
        }

    # -- aggregation ----------------------------------------------------------

    def by_category(self) -> Dict[str, CategoryStats]:
        """Totals per Table-1 category (miss, lock, unlock, barrier)."""
        out = {name: CategoryStats() for name in CATEGORIES}
        for kind, bucket in self.by_kind.items():
            out[kind.category].add(bucket)
        return out

    @property
    def total_messages(self) -> int:
        return sum(bucket.messages for bucket in self.by_kind.values())

    @property
    def total_data_bytes(self) -> int:
        return sum(bucket.data_bytes for bucket in self.by_kind.values())

    @property
    def total_data_kbytes(self) -> float:
        return self.total_data_bytes / 1024.0

    @property
    def total_control_bytes(self) -> int:
        """Raw protocol-metadata bytes (clocks, notices), all categories."""
        return sum(bucket.control_bytes for bucket in self.by_kind.values())

    def messages_of(self, kind: MessageKind) -> int:
        return self.by_kind[kind].messages

    def category_messages(self, category: str) -> int:
        return self.by_category()[category].messages

    def category_data_bytes(self, category: str) -> int:
        return self.by_category()[category].data_bytes

    def merged_with(self, other: "NetworkStats") -> "NetworkStats":
        """A new ledger with the sum of both."""
        merged = NetworkStats()
        for kind in MessageKind:
            merged.by_kind[kind].add(self.by_kind[kind])
            merged.by_kind[kind].add(other.by_kind[kind])
        return merged

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A plain-dict view, convenient for reports and JSON dumps."""
        return {
            kind.name: {
                "messages": bucket.messages,
                "data_bytes": bucket.data_bytes,
            }
            for kind, bucket in self.by_kind.items()
            if bucket.messages or bucket.data_bytes
        }

    def __repr__(self) -> str:
        return (
            f"NetworkStats(messages={self.total_messages}, "
            f"data_kbytes={self.total_data_kbytes:.1f})"
        )
