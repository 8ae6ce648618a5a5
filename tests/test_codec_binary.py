"""Binary codec coverage: the checksummed columnar v3 format, the
unchecked v2 and legacy v1 readers, and corrupt files."""

from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path

import pytest

from repro.common.errors import TraceError
from repro.trace.codec import (
    dump_binary,
    load_binary,
    load_trace,
    roundtrip_binary,
    roundtrip_text,
    save_trace,
)
from repro.trace.events import Event
from repro.trace.stream import TraceMeta, TraceStream
from tests.conftest import build_trace, small_trace


def large_trace(n_events: int = 50_000) -> TraceStream:
    """A synthetic trace mixing every event type, with extreme addresses."""
    trace = TraceStream(
        TraceMeta(
            n_procs=16,
            app="synthetic",
            params={"n": str(n_events)},
            regions={"blob": (0, 1 << 40)},
        )
    )
    for i in range(n_events):
        kind = i % 7
        proc = i % 16
        if kind < 3:
            trace.append(Event.read(proc, (i * 4096 + 4 * i) % (1 << 40), 4 + 4 * (i % 8)))
        elif kind < 5:
            trace.append(Event.write(proc, 4 * i, 4))
        elif kind == 5:
            trace.append(Event.acquire(proc, i % 64) if i % 2 else Event.release(proc, i % 64))
        else:
            trace.append(Event.at_barrier(proc, i % 8))
    return trace


class TestColumnarFormat:
    def test_large_binary_roundtrip_is_exact(self):
        trace = large_trace()
        loaded = roundtrip_binary(trace)
        assert [list(c) for c in loaded.columns()] == [
            list(c) for c in trace.columns()
        ]
        assert loaded.meta.params == trace.meta.params
        assert loaded.meta.regions == trace.meta.regions

    def test_binary_and_text_agree(self):
        trace = large_trace(2_000)
        assert list(roundtrip_binary(trace)) == list(roundtrip_text(trace))

    def test_dump_is_deterministic(self):
        trace = small_trace("cholesky")
        a, b = io.BytesIO(), io.BytesIO()
        dump_binary(trace, a)
        dump_binary(trace, b)
        assert a.getvalue() == b.getvalue()

    def test_empty_trace_roundtrips(self):
        trace = TraceStream(TraceMeta(n_procs=4, app="empty"))
        loaded = roundtrip_binary(trace)
        assert len(loaded) == 0
        assert loaded.meta.n_procs == 4
        assert loaded.meta.app == "empty"
        assert list(roundtrip_text(trace)) == []

    def test_zero_address_event(self):
        trace = build_trace(1, [Event.write(0, 0x0, 4), Event.read(0, 0x0, 4)])
        loaded = roundtrip_binary(trace)
        assert loaded[0].addr == 0 and loaded[1].addr == 0
        assert loaded.max_addr() == 4

    def test_large_addresses_and_sizes(self):
        trace = build_trace(1, [Event.read(0, (1 << 40) - 4, 1 << 20)])
        loaded = roundtrip_binary(trace)
        assert loaded[0].addr == (1 << 40) - 4
        assert loaded[0].size == 1 << 20

    def test_truncated_column_blob(self):
        buf = io.BytesIO()
        dump_binary(large_trace(100), buf)
        clipped = io.BytesIO(buf.getvalue()[:-10])
        with pytest.raises(TraceError, match="truncated"):
            load_binary(clipped)

    def test_truncated_header(self):
        with pytest.raises(TraceError, match="truncated"):
            load_binary(io.BytesIO(b"LRCTRAC2\x01\x02"))

    def test_bad_magic(self):
        with pytest.raises(TraceError, match="magic"):
            load_binary(io.BytesIO(b"NOTATRCE" + b"\x00" * 32))

    def test_itemsize_mismatch_detected(self):
        buf = io.BytesIO()
        dump_binary(build_trace(1, [Event.read(0, 0x10)]), buf)
        raw = bytearray(buf.getvalue()[:-4])
        raw[8] = 13  # claim a 13-byte code column, under a matching CRC
        raw += struct.pack("<I", zlib.crc32(raw))
        with pytest.raises(TraceError, match="itemsize"):
            load_binary(io.BytesIO(bytes(raw)))

    def test_unchecked_v2_files_still_load(self):
        trace = large_trace(300)
        buf = io.BytesIO()
        dump_binary(trace, buf)
        v2 = b"LRCTRAC2" + buf.getvalue()[8:-4]
        assert list(load_binary(io.BytesIO(v2))) == list(trace)
        with pytest.raises(TraceError, match="after the last column"):
            load_binary(io.BytesIO(v2 + b"\x00"))


def saved_bytes(tmp_path) -> bytes:
    """A small trace as ``save_trace`` writes it: every event type,
    params and regions in its metadata."""
    trace = build_trace(
        2,
        [
            Event.write(0, 0x40, 8),
            Event.acquire(0, 1),
            Event.release(0, 1),
            Event.read(1, 0x44, 4),
            Event.at_barrier(0, 0),
            Event.at_barrier(1, 0),
        ],
    )
    trace.meta.params["seed"] = "3"
    trace.meta.regions["grid"] = (0, 256)
    path = tmp_path / "small.trcb"
    save_trace(trace, path)
    assert list(load_trace(path)) == list(trace)
    return path.read_bytes()


class TestCorruptFiles:
    """A damaged ``.trcb`` raises ``TraceError`` at load: it never yields
    a trace, hence never a ledger."""

    def test_every_truncation_raises(self, tmp_path):
        raw = saved_bytes(tmp_path)
        for length in range(len(raw)):
            with pytest.raises(TraceError):
                load_binary(io.BytesIO(raw[:length]))

    def test_every_single_bit_flip_raises(self, tmp_path):
        raw = saved_bytes(tmp_path)
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TraceError):
                load_binary(io.BytesIO(bytes(flipped)))

    def test_malformed_metadata_raises(self):
        for meta in (b"{", b"[]", b'{"app": "x"}', b"\xff"):
            raw = b"LRCTRAC2" + struct.pack("<BBBBIQ", 1, 2, 8, 4, len(meta), 0) + meta
            with pytest.raises(TraceError, match="metadata"):
                load_binary(io.BytesIO(raw))


#: ``large_trace(210)`` as the last v1 writer wrote it (the writer is
#: gone; the reader stays for old cache files and external tracers).
GOLDEN_V1 = Path(__file__).parent / "golden_trace_v1.trcb"


class TestLegacyFormat:
    def test_legacy_fixture_loads(self):
        # A pre-columnar cache file must keep loading through the same
        # entry points (magic dispatch inside load_binary).
        assert GOLDEN_V1.read_bytes()[:8] == b"LRCTRACE"
        trace = large_trace(210)
        loaded = load_trace(GOLDEN_V1)
        assert list(loaded) == list(trace)
        assert loaded.meta.params == trace.meta.params
        assert loaded.meta.regions == trace.meta.regions

    def test_legacy_and_columnar_agree(self):
        assert list(load_trace(GOLDEN_V1)) == list(roundtrip_binary(large_trace(210)))

    def test_legacy_truncated_record(self):
        clipped = io.BytesIO(GOLDEN_V1.read_bytes()[:-5])
        with pytest.raises(TraceError, match="truncated"):
            load_binary(clipped)

    def test_legacy_unknown_type_code(self):
        meta = b'{"n_procs": 1}'
        record = struct.Struct("<BBHIQII").pack(9, 0, 0, 0, 0x10, 4, 0)
        raw = b"LRCTRACE" + struct.pack("<II", len(meta), 1) + meta + record
        with pytest.raises(TraceError, match="type code"):
            load_binary(io.BytesIO(raw))

    def test_saved_trcb_files_are_columnar(self, tmp_path):
        path = tmp_path / "t.trcb"
        save_trace(build_trace(1, [Event.read(0, 0x10)]), path)
        assert path.read_bytes()[:8] == b"LRCTRAC3"
