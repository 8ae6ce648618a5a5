"""Tests for the EW (Ivy-style, exclusive-writer SC) baseline protocol."""

import pytest

from repro.analysis.checker import check_protocol
from repro.apps.synthetic import false_sharing, single_lock_chain
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.exclusive_writer import ExclusiveWriter
from repro.protocols.registry import (
    EXTRA_PROTOCOLS,
    all_protocol_names,
    protocol_class,
    protocol_names,
)
from repro.simulator.engine import simulate
from repro.trace.events import Event
from tests.conftest import build_trace, interpreter_engine


def run(events, n_procs=4, page_size=1024):
    # White-box suites need the interpreter: the tapes replay without
    # maintaining page-table state.
    engine = interpreter_engine(
        build_trace(n_procs, events), ExclusiveWriter, page_size=page_size
    )
    return engine.protocol, engine.run()


class TestRegistry:
    def test_ew_not_in_paper_four(self):
        assert "EW" not in protocol_names()
        assert "EW" in all_protocol_names()
        assert EXTRA_PROTOCOLS["EW"] is ExclusiveWriter

    def test_aliases(self):
        assert protocol_class("ivy") is ExclusiveWriter
        assert protocol_class("sc") is ExclusiveWriter
        assert protocol_class("EW") is ExclusiveWriter


class TestOwnership:
    def test_write_fault_invalidates_readers(self):
        protocol, result = run(
            [
                Event.read(1, 0x0),
                Event.read(2, 0x0),
                Event.write(3, 0x0),
            ]
        )
        assert protocol.entry(1, 0).state == PageState.INVALID
        assert protocol.entry(2, 0).state == PageState.INVALID
        assert protocol.copyset[0] == {3}
        assert result.stats.messages_of(MessageKind.WRITE_NOTICE) == 2

    def test_repeat_writes_by_owner_free(self):
        protocol, result = run([Event.write(1, 0x0), Event.write(1, 0x4)])
        assert protocol.write_faults == 1

    def test_new_reader_downgrades_owner(self):
        protocol, _ = run(
            [
                Event.write(1, 0x0),
                Event.read(2, 0x0),  # downgrade
                Event.write(1, 0x4),  # must re-fault and re-invalidate p2
            ]
        )
        assert protocol.write_faults == 2
        assert protocol.entry(2, 0).state == PageState.INVALID

    def test_ping_pong_counter(self):
        protocol, _ = run(
            [
                Event.write(1, 0x0),
                Event.write(2, 0x40),  # same page, different word
                Event.write(1, 0x0),
                Event.write(2, 0x40),
            ]
        )
        assert protocol.ping_pongs == 3

    def test_sync_ops_carry_no_consistency(self):
        _, result = run(
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
            ]
        )
        assert result.category_messages()["unlock"] == 0


class TestCorrectness:
    @pytest.mark.parametrize("page_size", [256, 4096])
    def test_consistent_on_all_apps(self, app_trace, page_size):
        report = check_protocol(app_trace, "EW", page_size=page_size)
        assert report.ok

    def test_reads_see_latest_through_ownership_chain(self):
        trace = single_lock_chain(n_procs=4, rounds=3)
        report = check_protocol(trace, "EW", page_size=512)
        assert report.ok and report.reads_checked > 0


class TestPingPongVsLazy:
    def test_false_sharing_dwarfs_lazy(self):
        """§4.3.1: falsely shared pages ping-pong under exclusive writers."""
        trace = false_sharing(n_procs=8, rounds=12, words_per_proc=8)
        ew = simulate(trace, "EW", page_size=2048)
        li = simulate(trace, "LI", page_size=2048)
        assert ew.messages > 5 * li.messages
        assert ew.data_bytes > 10 * li.data_bytes
        assert ew.counters["ping_pongs"] > 0

    def test_private_pages_no_ping_pong(self):
        trace = false_sharing(
            n_procs=4, rounds=6, words_per_proc=4, spread_bytes=8192
        )
        result = simulate(trace, "EW", page_size=1024)
        # Only the truly-shared exchange cells ping-pong.
        counters_pages = result.counters["ping_pongs"]
        packed = simulate(
            false_sharing(n_procs=4, rounds=6, words_per_proc=4),
            "EW",
            page_size=1024,
        )
        assert packed.counters["ping_pongs"] > counters_pages
