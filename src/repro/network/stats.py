"""Message and data accounting, grouped the way the paper reports it.

:class:`NetworkStats` keeps a per-:class:`~repro.network.message.MessageKind`
ledger, written by :class:`~repro.network.network.Network`, and can
aggregate it into the four Table-1 categories (miss, lock, unlock,
barrier) and into the headline totals plotted in Figures 5-14 (total
messages, total data kbytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict

from repro.network.message import CATEGORIES, KIND_NAMES, MessageKind

#: Every kind in ``kind.slot`` order, and each one's index into
#: :data:`~repro.network.message.CATEGORIES`: built once, so neither a
#: new ledger nor an aggregation hashes a kind.
_KINDS = tuple(MessageKind)
_CATEGORY_INDEX = tuple(CATEGORIES.index(kind.category) for kind in _KINDS)


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
    """Ledger of every message sent, bucketed by kind and category.

    Three columns indexed by ``kind.slot`` — ``messages``, ``data_bytes``
    and ``control_bytes`` — which :class:`~repro.network.network.Network`
    adds to in place; every view below is read from them.
    """

    __slots__ = ("messages", "data_bytes", "control_bytes")

    def __init__(self) -> None:
        n = len(_KINDS)
        self.messages = [0] * n
        self.data_bytes = [0] * n
        self.control_bytes = [0] * n

    # -- aggregation ----------------------------------------------------------

    @property
    def by_kind(self) -> Dict[MessageKind, CategoryStats]:
        """Counters per kind, every kind in declaration order: fresh
        :class:`CategoryStats` read from the columns, so writing to them
        leaves the ledger as it was."""
        return {
            kind: CategoryStats(messages, data, control)
            for kind, messages, data, control in zip(
                _KINDS, self.messages, self.data_bytes, self.control_bytes
            )
        }

    def by_category(self) -> Dict[str, CategoryStats]:
        """Totals per Table-1 category (miss, lock, unlock, barrier)."""
        out = [CategoryStats() for _ in CATEGORIES]
        for index, messages, data, control in zip(
            _CATEGORY_INDEX, self.messages, self.data_bytes, self.control_bytes
        ):
            bucket = out[index]
            bucket.messages += messages
            bucket.data_bytes += data
            bucket.control_bytes += control
        return dict(zip(CATEGORIES, out))

    @property
    def total_messages(self) -> int:
        return sum(self.messages)

    @property
    def total_data_bytes(self) -> int:
        return sum(self.data_bytes)

    @property
    def total_data_kbytes(self) -> float:
        return self.total_data_bytes / 1024.0

    @property
    def total_control_bytes(self) -> int:
        """Raw protocol-metadata bytes (clocks, notices), all categories."""
        return sum(self.control_bytes)

    def messages_of(self, kind: MessageKind) -> int:
        return self.messages[kind.slot]

    def category_messages(self, category: str) -> int:
        return self.by_category()[category].messages

    def category_data_bytes(self, category: str) -> int:
        return self.by_category()[category].data_bytes

    def merged_with(self, other: "NetworkStats") -> "NetworkStats":
        """A new ledger with the sum of both."""
        merged = NetworkStats()
        merged.messages[:] = map(add, self.messages, other.messages)
        merged.data_bytes[:] = map(add, self.data_bytes, other.data_bytes)
        merged.control_bytes[:] = map(add, self.control_bytes, other.control_bytes)
        return merged

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A plain-dict view, convenient for reports and JSON dumps."""
        return {
            name: {"messages": messages, "data_bytes": data}
            for name, messages, data in zip(KIND_NAMES, self.messages, self.data_bytes)
            if messages or data
        }

    def __repr__(self) -> str:
        return (
            f"NetworkStats(messages={self.total_messages}, "
            f"data_kbytes={self.total_data_kbytes:.1f})"
        )
