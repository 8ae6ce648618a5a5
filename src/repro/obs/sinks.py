"""Event sinks: where a RecordingProbe's structured events land.

A :class:`~repro.obs.probe.RecordingProbe` stages each event as a row
``kind, proc, fields_or_None`` and drains the staged rows at every
epoch boundary, whenever its metrics registry is read (``Engine.run()``
does, to build its result) and on ``close()``. A sink takes a drained
batch in one of two forms:

- ``record_rows(kinds, procs, fields, epoch)`` — the rows themselves,
  as three parallel lists; the epoch is constant over a batch and
  ``seq`` is the row's position in the run. :class:`ColumnarSink`
  extends its typed columns from them directly.
- ``record(event)`` — one flat dict per event (the schema in
  :mod:`repro.obs.probe`), built by :func:`event_dict`, the one place
  an event dict is made. :class:`MemorySink` (tests, the in-process
  report renderer), :class:`JsonlSink` (``lrc-sim run --trace-out``;
  :func:`read_jsonl` loads it back losslessly) and any user sink with
  only this method get exactly these.
"""

from __future__ import annotations

import json
import logging
from array import array
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Union

logger = logging.getLogger(__name__)


def event_dict(
    seq: int, kind: str, proc: int, fields: Optional[Dict[str, Any]], epoch: int
) -> Dict[str, Any]:
    """One event in the dict form ``record(event)`` sinks receive: its
    position in the run, its staged row, its batch's epoch."""
    event: Dict[str, Any] = {"seq": seq, "kind": kind, "epoch": epoch, "proc": proc}
    if fields:
        event.update(fields)
    return event


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
    """Typed-array event storage: one entry per event, four int columns.

    Columns hold ``seq`` implicitly (the index), then ``kind`` (interned
    code), ``epoch``, ``proc``; everything else an event carries goes to
    the ``extras`` list (``None`` for the common no-extras case, so
    storage stays ~10 bytes/event for plain transitions).
    """

    def __init__(self) -> None:
        self.kind_codes: Dict[str, int] = {}
        self._kind_names: List[str] = []
        self._kinds = array("h")
        self._epochs = array("q")
        self._procs = array("h")
        self.extras: List[Optional[Dict[str, Any]]] = []

    def record_rows(
        self, kinds: List[str], procs: List[int], fields: List[Optional[dict]], epoch: int
    ) -> None:
        """Append one drained batch, column by column."""
        kind_codes = self.kind_codes
        for kind in dict.fromkeys(kinds):  # first-appearance order
            if kind not in kind_codes:
                kind_codes[kind] = len(self._kind_names)
                self._kind_names.append(kind)
        self._kinds.extend(map(kind_codes.__getitem__, kinds))
        self._epochs.extend(array("q", (epoch,)) * len(kinds))
        self._procs.extend(procs)
        self.extras.extend(fields)

    def __len__(self) -> int:
        return len(self._kinds)

    def to_events(self) -> List[Dict[str, Any]]:
        """Materialize back into the dict form other sinks record."""
        names = self._kind_names
        return [
            event_dict(seq, names[code], proc, extra, epoch)
            for seq, (code, proc, extra, epoch) in enumerate(
                zip(self._kinds, self._procs, self.extras, self._epochs)
            )
        ]

    def counts_by_kind(self) -> Dict[str, int]:
        return {
            name: self._kinds.count(code)
            for name, code in sorted(self.kind_codes.items())
        }
