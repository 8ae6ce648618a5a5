"""Traffic timelines: when in the execution a protocol communicates.

Buckets a protocol run's messages by trace position, exposing the
*shape* of communication over time — eager protocols burst at every
release, lazy protocols at acquires and misses, barrier apps pulse at
phase boundaries. Rendered as a text sparkline for quick inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.config import SimConfig
from repro.simulator.engine import Engine
from repro.trace.stream import TraceStream

_SPARKS = " ▁▂▃▄▅▆▇█"


@dataclass
class Timeline:
    """Messages per bucket of trace positions."""

    protocol: str
    bucket_events: int
    message_buckets: List[int]
    data_byte_buckets: List[int]

    @property
    def total_messages(self) -> int:
        return sum(self.message_buckets)

    @property
    def peak_bucket(self) -> int:
        return max(self.message_buckets) if self.message_buckets else 0

    @property
    def burstiness(self) -> float:
        """Peak-to-mean ratio of per-bucket message counts."""
        if not self.message_buckets or self.total_messages == 0:
            return 0.0
        mean = self.total_messages / len(self.message_buckets)
        return self.peak_bucket / mean

    def sparkline(self, metric: str = "messages") -> str:
        buckets = (
            self.message_buckets if metric == "messages" else self.data_byte_buckets
        )
        peak = max(buckets) if buckets else 0
        if peak == 0:
            return " " * len(buckets)
        out = []
        for value in buckets:
            index = round(value / peak * (len(_SPARKS) - 1))
            out.append(_SPARKS[index])
        return "".join(out)

    def format(self) -> str:
        return (
            f"{self.protocol} [{self.sparkline()}] "
            f"{self.total_messages} msgs, peak {self.peak_bucket}/bucket, "
            f"burstiness {self.burstiness:.1f}x"
        )


def message_timeline(
    trace: TraceStream,
    protocol: Union[str, type],
    page_size: int = 4096,
    n_buckets: int = 40,
    config: Optional[SimConfig] = None,
) -> Timeline:
    """Run ``protocol`` over ``trace``, bucketing traffic by position.

    The run is the engine's interpreter, so it takes the engine's trace
    and config checks; the loop is fed the compiled ops one at a time,
    and each op's ledger delta is booked to its bucket when the loop
    asks for the next."""
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    base = config or SimConfig(n_procs=trace.n_procs)
    engine = Engine(trace, base.with_page_size(page_size), protocol)
    stats = engine.protocol.network.stats
    n_events = max(len(trace), 1)
    bucket_events = max(1, (n_events + n_buckets - 1) // n_buckets)
    messages = [0] * n_buckets
    data = [0] * n_buckets

    def booked(ops):
        last_msgs = last_bytes = 0
        # An op's position is its event's seq.
        for seq, op in enumerate(ops):
            yield op
            bucket = min(seq // bucket_events, n_buckets - 1)
            messages[bucket] += stats.total_messages - last_msgs
            data[bucket] += stats.total_data_bytes - last_bytes
            last_msgs = stats.total_messages
            last_bytes = stats.total_data_bytes

    compiled = trace.compiled(page_size)
    engine._run_per_event(booked(compiled.ops), {}, engine._plan(compiled))
    return Timeline(
        protocol=engine.protocol.name,
        bucket_events=bucket_events,
        message_buckets=messages,
        data_byte_buckets=data,
    )
