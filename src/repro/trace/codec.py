"""Trace file codecs: a human-readable text format and a compact binary one.

Text format (``.trc``)::

    # lrc-trace v1
    # n_procs 16
    # app water
    # param molecules=64
    # region grid 4096 16384
    R 3 0x1a30 4
    W 3 0x1a30 4
    A 3 7
    L 3 7
    B 3 0

Binary format (``.trcb``), version 3 — *columnar*: an 8-byte magic, a
fixed header recording the column itemsizes and event count, a UTF-8
JSON metadata block, the four trace columns (type codes, procs, values,
sizes) as contiguous little-endian blobs written and read with
``array.tobytes()``/``frombytes()``, then a CRC-32 of every byte before
it. A million-event trace loads in milliseconds because no per-record
Python work happens at all; a truncated or corrupted file raises
:class:`~repro.common.errors.TraceError` before any of it is parsed.

The unchecked v2 layout (the same without the CRC) and the original
per-record v1 format (magic ``LRCTRACE``, one 24-byte struct per event)
are still read, so pre-existing trace files and externally produced
ones keep working; see ``docs/TRACE_FORMAT.md`` for the layouts.
"""

from __future__ import annotations

import io
import json
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import IO, Union

from repro.common.errors import TraceError
from repro.trace.events import CODE_TYPES, Event, EventType
from repro.trace.stream import TraceMeta, TraceStream

_TEXT_MAGIC = "# lrc-trace v1"
_BINARY_MAGIC = b"LRCTRACE"  # legacy v1: per-record structs
_BINARY_MAGIC_V2 = b"LRCTRAC2"  # columnar, unchecked
_BINARY_MAGIC_V3 = b"LRCTRAC3"  # columnar, then a CRC-32 of the file before it
_CRC = struct.Struct("<I")
_RECORD = struct.Struct("<BBHIQII")
#: v2/v3 fixed header after the magic: column itemsizes (codes, procs,
#: values, sizes), metadata length, event count.
_V2_HEADER = struct.Struct("<BBBBIQ")
_COLUMN_TYPECODES = ("b", "h", "q", "i")


# -- text ------------------------------------------------------------------


def dump_text(trace: TraceStream, fp: IO[str]) -> None:
    """Write a trace in the text format."""
    fp.write(_TEXT_MAGIC + "\n")
    fp.write(f"# n_procs {trace.meta.n_procs}\n")
    fp.write(f"# app {trace.meta.app}\n")
    for key, value in sorted(trace.meta.params.items()):
        fp.write(f"# param {key}={value}\n")
    for name, (base, size) in sorted(trace.meta.regions.items()):
        fp.write(f"# region {name} {base} {size}\n")
    for event in trace:
        fp.write(_format_event(event) + "\n")


def _format_event(event: Event) -> str:
    if event.type.is_ordinary:
        return f"{event.type.value} {event.proc} {event.addr:#x} {event.size}"
    if event.type == EventType.BARRIER:
        return f"B {event.proc} {event.barrier}"
    return f"{event.type.value} {event.proc} {event.lock}"


def load_text(fp: IO[str]) -> TraceStream:
    """Parse a trace in the text format."""
    first = fp.readline().rstrip("\n")
    if first != _TEXT_MAGIC:
        raise TraceError(f"not a text trace (bad magic line: {first!r})")
    meta = TraceMeta(n_procs=1)
    trace = TraceStream(meta)
    for lineno, raw in enumerate(fp, start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_header(meta, line, lineno)
            continue
        trace.append(_parse_event(line, lineno))
    return trace


def _parse_header(meta: TraceMeta, line: str, lineno: int) -> None:
    fields = line[1:].split()
    if not fields:
        return
    key = fields[0]
    try:
        if key == "n_procs":
            meta.n_procs = int(fields[1])
        elif key == "app":
            meta.app = fields[1]
        elif key == "param":
            name, _, value = fields[1].partition("=")
            meta.params[name] = value
        elif key == "region":
            meta.regions[fields[1]] = (int(fields[2]), int(fields[3]))
    except (IndexError, ValueError) as exc:
        raise TraceError(f"line {lineno}: bad header {line!r}") from exc


def _parse_event(line: str, lineno: int) -> Event:
    fields = line.split()
    try:
        type_ = EventType(fields[0])
        proc = int(fields[1])
        if type_.is_ordinary:
            return Event(type_, proc, addr=int(fields[2], 0), size=int(fields[3]))
        if type_ == EventType.BARRIER:
            return Event(type_, proc, barrier=int(fields[2]))
        return Event(type_, proc, lock=int(fields[2]))
    except (IndexError, ValueError, KeyError) as exc:
        raise TraceError(f"line {lineno}: bad event {line!r}") from exc


# -- binary ------------------------------------------------------------------


def _meta_json(trace: TraceStream) -> bytes:
    return json.dumps(
        {
            "n_procs": trace.meta.n_procs,
            "app": trace.meta.app,
            "params": trace.meta.params,
            "regions": {k: list(v) for k, v in trace.meta.regions.items()},
        }
    ).encode("utf-8")


def _parse_meta(raw: bytes) -> TraceMeta:
    try:
        meta_raw = json.loads(raw.decode("utf-8"))
        return TraceMeta(
            n_procs=meta_raw["n_procs"],
            app=meta_raw.get("app", "unknown"),
            params=dict(meta_raw.get("params", {})),
            regions={k: (v[0], v[1]) for k, v in meta_raw.get("regions", {}).items()},
        )
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise TraceError(f"malformed binary trace metadata ({exc})") from exc


def _as_little_endian(column: array) -> array:
    """The column with little-endian byte order (copies only on BE hosts)."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column


def dump_binary(trace: TraceStream, fp: IO[bytes]) -> None:
    """Write a trace in the columnar (v3) binary format."""
    meta_json = _meta_json(trace)
    columns = trace.columns()
    itemsizes = [c.itemsize for c in columns]
    header = _V2_HEADER.pack(*itemsizes, len(meta_json), len(trace))
    crc = 0
    for chunk in (
        _BINARY_MAGIC_V3,
        header,
        meta_json,
        *(_as_little_endian(column).tobytes() for column in columns),
    ):
        fp.write(chunk)
        crc = zlib.crc32(chunk, crc)
    fp.write(_CRC.pack(crc))


def load_binary(fp: IO[bytes]) -> TraceStream:
    """Parse a binary trace: columnar v3 or v2, or the legacy per-record
    v1. A v3 file whose CRC does not match — truncated, or any bit
    flipped — raises :class:`TraceError` before it is parsed."""
    magic = fp.read(len(_BINARY_MAGIC_V3))
    if magic == _BINARY_MAGIC:
        return _load_binary_legacy(fp)
    body = fp.read()
    if magic == _BINARY_MAGIC_V3:
        body, stored = memoryview(body)[: -_CRC.size], body[-_CRC.size :]
        if len(stored) < _CRC.size or _CRC.unpack(stored)[0] != zlib.crc32(body, zlib.crc32(magic)):
            raise TraceError("corrupt or truncated binary trace (CRC mismatch)")
    elif magic != _BINARY_MAGIC_V2:
        raise TraceError(f"not a binary trace (magic {magic!r})")
    return _load_columns(body)


def _load_columns(body) -> TraceStream:
    """The columnar layout after the magic: ``body`` exactly."""
    if len(body) < _V2_HEADER.size:
        raise TraceError("truncated binary trace (header)")
    *itemsizes, meta_len, n_events = _V2_HEADER.unpack_from(body)
    at = _V2_HEADER.size + meta_len
    if at > len(body):
        raise TraceError("truncated binary trace (metadata)")
    meta = _parse_meta(bytes(body[_V2_HEADER.size : at]))
    columns = []
    for typecode, itemsize in zip(_COLUMN_TYPECODES, itemsizes):
        column = array(typecode)
        if column.itemsize != itemsize:
            raise TraceError(
                f"column itemsize mismatch: file has {itemsize}, "
                f"this platform's array({typecode!r}) is {column.itemsize}"
            )
        end = at + n_events * itemsize
        if end > len(body):
            raise TraceError("truncated binary trace")
        column.frombytes(body[at:end])
        at = end
        if sys.byteorder == "big":
            column.byteswap()
        columns.append(column)
    if at != len(body):
        raise TraceError(f"{len(body) - at} bytes after the last column of a binary trace")
    return TraceStream.from_columns(meta, *columns)


# -- legacy (v1) binary: read only --------------------------------------------


def _load_binary_legacy(fp: IO[bytes]) -> TraceStream:
    header = fp.read(8)
    if len(header) != 8:
        raise TraceError("truncated binary trace (header)")
    meta_len, n_events = struct.unpack("<II", header)
    meta = _parse_meta(fp.read(meta_len))
    trace = TraceStream(meta)
    for _ in range(n_events):
        record = fp.read(_RECORD.size)
        if len(record) != _RECORD.size:
            raise TraceError("truncated binary trace")
        trace.append(_unpack_event(record))
    return trace


def _unpack_event(record: bytes) -> Event:
    code, proc, _, a, b, size, _ = _RECORD.unpack(record)
    try:
        type_ = CODE_TYPES[code]
    except IndexError as exc:
        raise TraceError(f"unknown event type code {code}") from exc
    if type_.is_ordinary:
        return Event(type_, proc, addr=b, size=size)
    if type_ == EventType.BARRIER:
        return Event(type_, proc, barrier=a)
    return Event(type_, proc, lock=a)


# -- path-level helpers ----------------------------------------------------


def save_trace(trace: TraceStream, path: Union[str, Path]) -> None:
    """Save a trace; ``.trcb`` suffix selects binary, anything else text."""
    path = Path(path)
    if path.suffix == ".trcb":
        with open(path, "wb") as fp:
            dump_binary(trace, fp)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            dump_text(trace, fp)


def load_trace(path: Union[str, Path]) -> TraceStream:
    """Load a trace saved by :func:`save_trace`."""
    path = Path(path)
    if path.suffix == ".trcb":
        with open(path, "rb") as fp:
            return load_binary(fp)
    with open(path, "r", encoding="utf-8") as fp:
        return load_text(fp)


def roundtrip_text(trace: TraceStream) -> TraceStream:
    """Encode then decode through the text codec (testing helper)."""
    buf = io.StringIO()
    dump_text(trace, buf)
    buf.seek(0)
    return load_text(buf)


def roundtrip_binary(trace: TraceStream) -> TraceStream:
    """Encode then decode through the binary codec (testing helper)."""
    buf = io.BytesIO()
    dump_binary(trace, buf)
    buf.seek(0)
    return load_binary(buf)
