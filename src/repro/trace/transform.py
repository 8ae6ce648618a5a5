"""Trace transformations: slicing.

``slice_events`` cuts a window out of a recorded trace — Table 1 prices
one operation as a whole micro-trace minus its prefix. The result is a
new trace; the input is never mutated. A prefix slice can end with held
locks or a partial barrier episode.
"""

from __future__ import annotations

from typing import Optional

from repro.trace.events import Event
from repro.trace.stream import TraceMeta, TraceStream


def slice_events(trace: TraceStream, start: int = 0, stop: Optional[int] = None) -> TraceStream:
    """Events ``[start, stop)`` as a new trace (may leave sync open)."""
    meta = trace.meta
    sliced = TraceStream(
        TraceMeta(
            n_procs=meta.n_procs,
            app=meta.app,
            params={**meta.params, "slice": f"{start}:{stop}"},
            regions=dict(meta.regions),
        )
    )
    for event in trace.events[start:stop]:
        sliced.append(
            Event(
                event.type,
                event.proc,
                addr=event.addr,
                size=event.size,
                lock=event.lock,
                barrier=event.barrier,
            )
        )
    return sliced
