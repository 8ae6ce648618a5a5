"""Reliable FIFO point-to-point channels.

The paper assumes "reliable FIFO communication channels" and no broadcast
(§5.1). A :class:`Channel` is an ordered queue of messages between one
(src, dst) pair; the protocol simulator delivers synchronously (the trace
is a global order), but the channel still *enforces* FIFO so that protocol
code which depends on ordering (diffs applied in hb order) is exercised
against the stated network model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.common.types import ProcId
from repro.network.message import Message


class Channel:
    """An ordered, lossless message queue from ``src`` to ``dst``."""

    def __init__(self, src: ProcId, dst: ProcId):
        if src == dst:
            raise ValueError(f"no self-channel: p{src} -> p{dst}")
        self.src = src
        self.dst = dst
        self._queue: Deque[Message] = deque()
        self.delivered_count = 0

    def push(self, message: Message) -> None:
        """Enqueue a message; the message's endpoints must match the channel."""
        if message.src != self.src or message.dst != self.dst:
            raise ValueError(
                f"message p{message.src}->p{message.dst} on channel "
                f"p{self.src}->p{self.dst}"
            )
        self._queue.append(message)

    def pop(self) -> Optional[Message]:
        """Dequeue the oldest in-flight message, or None if empty."""
        if not self._queue:
            return None
        self.delivered_count += 1
        return self._queue.popleft()

    def drain(self) -> Iterator[Message]:
        """Deliver every in-flight message in FIFO order."""
        while self._queue:
            message = self.pop()
            assert message is not None
            yield message

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Channel(p{self.src}->p{self.dst}, in_flight={len(self)})"
