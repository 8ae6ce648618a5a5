"""The event schema, and the sinks a run's structured events land in.

Every event is a *shape* of :data:`EVENT_SCHEMA` — a kind plus its field
names in emission order — so an event is stored positionally: a shape
code, the acting processor and ``FIELD_WIDTH`` integer slots (the
shape's fields, zero past its arity). Events reach sinks in per-epoch
batches (a stock :class:`~repro.obs.probe.RecordingProbe` drains at
every epoch boundary, whenever its metrics registry is read and on
``close()``; a tape run that records or reads a cell's kept record
stream hands it over the same way). A sink takes a batch in one of two forms:

- ``record_rows(kinds, procs, fields, epoch)`` — the columns
  themselves: shape codes, processors and the flat ``FIELD_WIDTH``-wide
  field slots, typed arrays; the epoch is constant over a batch and
  ``seq`` is the row's position in the run. :class:`ColumnarSink` keeps
  them as they come.
- ``record(event)`` — one flat dict per event, built by
  :func:`event_dict`, the one place an event dict is made.
  :class:`MemorySink` (tests, the in-process report renderer),
  :class:`JsonlSink` (``lrc-sim run --trace-out``; :func:`read_jsonl`
  loads it back losslessly) and any user sink with only this method get
  exactly these.
"""

from __future__ import annotations

import json
import logging
from array import array
from collections import Counter
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Sequence, Tuple, Union

logger = logging.getLogger(__name__)

#: Every event shape, by code: ``(kind, field names in emission order)``.
#: ``notices_send`` has two: a barrier exit's batch carries no ``bytes``,
#: and an absent field is not a zero. docs/OBSERVABILITY.md's "Event
#: schema" table is this table (a test checks).
EVENT_SCHEMA: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("acquire", ("lock",)),
    ("release", ("lock",)),
    ("barrier_arrive", ("barrier",)),
    ("barrier_complete", ("barrier",)),
    ("interval_close", ("interval", "pages", "bytes")),
    ("diff_create", ("interval", "page", "bytes")),
    ("diff_fetch", ("server", "count", "bytes")),
    ("diff_apply", ("page", "count")),
    ("notices_send", ("dest", "count", "bytes")),
    ("notices_send", ("dest", "count")),
    ("notices_apply", ("count",)),
    ("page_fault", ("page", "cold")),
    ("page_fetch", ("page", "server", "bytes")),
    ("flush", ("count",)),
    ("update_push", ("dest", "count", "bytes")),
    ("home_flush", ("server", "count", "bytes")),
    ("gc_sweep", ("bytes", "retained")),
    ("write_fault", ("page",)),
)
#: Field slots per event: the widest shape's.
FIELD_WIDTH = max(len(names) for _kind, names in EVENT_SCHEMA)
#: ``(kind, number of fields)`` -> shape code.
SHAPE_CODES: Dict[Tuple[str, int], int] = {
    (kind, len(names)): code for code, (kind, names) in enumerate(EVENT_SCHEMA)
}
#: Zeros that pad a shape of ``n`` fields to ``FIELD_WIDTH`` slots.
FIELD_PADDING = tuple((0,) * (FIELD_WIDTH - n) for n in range(FIELD_WIDTH + 1))


def int_column(values: Sequence[int]) -> array:
    """``values`` as a typed array: 32-bit when every value fits, else 64."""
    try:
        return array("i", values)
    except OverflowError:
        return array("q", values)


def event_dict(
    seq: int, shape: int, proc: int, fields: Sequence[int], epoch: int
) -> Dict[str, Any]:
    """One event in the dict form ``record(event)`` sinks receive: its
    position in the run, its shape code, processor and field slots, its
    batch's epoch."""
    kind, names = EVENT_SCHEMA[shape]
    event: Dict[str, Any] = {"seq": seq, "kind": kind, "epoch": epoch, "proc": proc}
    event.update(zip(names, fields))
    return event


def feed(sinks, kinds, procs, fields, epoch: int, seq: int) -> None:
    """Hand one epoch's events, the first numbered ``seq``, to ``sinks``:
    the columns to ``record_rows``, dicts (built once) to ``record``."""
    events = None
    for sink in sinks:
        record_rows = getattr(sink, "record_rows", None)
        if record_rows is not None:
            record_rows(kinds, procs, fields, epoch)
            continue
        if events is None:
            width = FIELD_WIDTH
            events = [
                event_dict(seq + i, shape, proc, fields[width * i : width * i + width], epoch)
                for i, (shape, proc) in enumerate(zip(kinds, procs))
            ]
        for event in events:
            sink.record(event)


class MemorySink:
    """Keep every event as a dict in a list."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def record(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Write one JSON object per event line to a path or open file.

    Usable as a context manager; ``close`` is idempotent, flushes
    always, and closes the file only when this sink opened it — so a
    run that raises mid-epoch still leaves a complete, parseable file
    behind (``with JsonlSink(path) as sink: ...`` or an explicit
    ``try/finally probe.close()``).
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if hasattr(target, "write"):
            self._fp: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            self._fp = open(target, "w", encoding="utf-8")
            self._owned = True
        self.events_written = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def record(self, event: Dict[str, Any]) -> None:
        if self._closed:
            raise ValueError("record() on a closed JsonlSink")
        self._fp.write(json.dumps(event, separators=(",", ":")))
        self._fp.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fp.flush()
        if self._owned:
            self._fp.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl(source: Union[str, Path, IO[str]]) -> List[Dict[str, Any]]:
    """Load a JSONL event file written by :class:`JsonlSink`."""
    if hasattr(source, "read"):
        lines: Iterator[str] = iter(source)  # type: ignore[arg-type]
        return [json.loads(line) for line in lines if line.strip()]
    with open(source, "r", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


class ColumnarSink:
    """Typed-array event storage: the batches as they arrive.

    Each batch is kept as its columns — shape codes, processors, field
    slots — with its epoch; no per-event object exists until
    :meth:`to_events` materializes the dict form.
    """

    def __init__(self) -> None:
        self._batches: List[Tuple[array, array, array, int]] = []
        self._len = 0

    def record_rows(self, kinds, procs, fields, epoch: int) -> None:
        """Keep one batch, its columns as handed over."""
        self._batches.append((kinds, procs, fields, epoch))
        self._len += len(kinds)

    def __len__(self) -> int:
        return self._len

    def to_events(self) -> List[Dict[str, Any]]:
        """Materialize back into the dict form other sinks record."""
        events: List[Dict[str, Any]] = []
        width = FIELD_WIDTH
        for kinds, procs, fields, epoch in self._batches:
            base = len(events)
            events += [
                event_dict(base + i, shape, proc, fields[width * i : width * i + width], epoch)
                for i, (shape, proc) in enumerate(zip(kinds, procs))
            ]
        return events

    def counts_by_kind(self) -> Dict[str, int]:
        shapes: Counter = Counter()
        for kinds, _procs, _fields, _epoch in self._batches:
            shapes.update(kinds)
        counts: Counter = Counter()
        for shape, n in shapes.items():
            counts[EVENT_SCHEMA[shape][0]] += n
        return dict(sorted(counts.items()))
