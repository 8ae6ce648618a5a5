"""Tests for HLRC (home-based lazy release consistency)."""

import pytest

from repro.analysis.checker import check_protocol
from repro.config import SimConfig
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.home_lazy import HomeLazy
from repro.protocols.registry import protocol_class
from repro.simulator.engine import Engine, simulate
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace

PAGE = 1024


def run(events, n_procs=4, **options):
    config = SimConfig(n_procs=n_procs, page_size=PAGE, **options)
    engine = Engine(build_trace(n_procs, events), config, HomeLazy)
    return engine.protocol, engine.run()


class TestRegistry:
    def test_resolvable(self):
        assert protocol_class("HLRC") is HomeLazy
        assert protocol_class("home-based") is HomeLazy


class TestHomeFlush:
    def test_release_flushes_diffs_home(self):
        # Page 1's home is p1; the writer is p2.
        # Page contents live on the value-tracking path only.
        protocol, result = run(
            [Event.acquire(2, 0), Event.write(2, PAGE), Event.release(2, 0)],
            record_values=True,
        )
        assert result.stats.messages_of(MessageKind.UPDATE) == 1
        assert protocol.home_flushes == 1
        # The home's copy holds the flushed value (write seq = 1).
        assert protocol.entry(1, 1).page.read(0) == 1

    def test_flush_merged_per_home(self):
        # Pages 1 and 5 share home p1 at n_procs=4: one flush message.
        events = [
            Event.acquire(2, 0),
            Event.write(2, PAGE),
            Event.write(2, 5 * PAGE),
            Event.release(2, 0),
        ]
        _, result = run(events)
        assert result.stats.messages_of(MessageKind.UPDATE) == 1

    def test_local_home_flush_free(self):
        # p1 writes its own homed page: the flush is local, no messages.
        _, result = run(
            [Event.acquire(1, 0), Event.write(1, PAGE), Event.release(1, 0)]
        )
        assert result.stats.messages_of(MessageKind.UPDATE) == 0

    def test_diffs_discarded_after_flush(self):
        protocol, result = run(
            [Event.acquire(2, 0), Event.write(2, PAGE), Event.release(2, 0)]
        )
        assert result.counters["retained_diff_bytes"] == 0


class TestMisses:
    def test_miss_is_one_round_trip_to_home(self):
        events = [
            Event.read(3, PAGE),  # cold: 2 messages to home p1
            Event.acquire(2, 0),
            Event.write(2, PAGE),
            Event.release(2, 0),
            Event.acquire(3, 0),
            Event.read(3, PAGE),  # invalidated: 2 messages again
            Event.release(3, 0),
        ]
        _, result = run(events, record_values=True)
        # Three misses (p3 cold, p2's write-allocate, p3 after the
        # invalidation), one round trip each.
        assert result.category_messages()["miss"] == 6
        # Full page each time.
        assert result.category_data_bytes()["miss"] == 3 * PAGE
        assert result.read_values[-1][1] == [2]

    def test_no_diff_requests_ever(self, app_trace):
        result = simulate(app_trace, "HLRC", page_size=512)
        assert result.stats.messages_of(MessageKind.DIFF_REQUEST) == 0
        assert result.stats.messages_of(MessageKind.ACQUIRE_DIFF_REQUEST) == 0

    def test_miss_cost_independent_of_writer_count(self):
        """Unlike LRC's 2m, an HLRC miss is always one round trip."""
        events = [Event.read(3, 0x0)]
        # Three concurrent writers of page 0 under different locks.
        for i, proc in enumerate((0, 1, 2)):
            events += [
                Event.acquire(proc, 1 + i),
                Event.write(proc, 0x10 + 4 * i),
                Event.release(proc, 1 + i),
            ]
        for i in range(3):
            events += [Event.acquire(3, 1 + i), Event.release(3, 1 + i)]
        split = len(events)
        events += [Event.read(3, 0x0)]
        config = SimConfig(n_procs=4, page_size=PAGE)
        before = Engine(build_trace(4, events[:split]), config, HomeLazy).run()
        after = Engine(build_trace(4, events), config, HomeLazy).run()
        delta = (
            after.category_messages()["miss"] - before.category_messages()["miss"]
        )
        assert delta == 2


class TestHomeBehaviour:
    def test_home_page_never_invalidated_at_home(self):
        # p1 homes page 1 and caches it; p2's write must not invalidate it.
        events = [
            Event.read(1, PAGE),
            Event.acquire(2, 0),
            Event.write(2, PAGE),
            Event.release(2, 0),
            Event.acquire(1, 0),
            Event.read(1, PAGE),  # must hit and see the flushed value
            Event.release(1, 0),
        ]
        protocol, result = run(events, record_values=True)
        assert protocol.entry(1, 1).state == PageState.VALID
        assert result.read_values[-1][1] == [2]
        # No miss for the home's own read.
        assert result.invalid_misses == 0

    def test_notices_are_lazy_like_lrc(self):
        """Releases flush data but notices still move with acquires."""
        protocol, _ = run(
            [
                Event.acquire(2, 0),
                Event.write(2, PAGE),
                Event.release(2, 0),
                Event.acquire(3, 0),
                Event.release(3, 0),
            ]
        )
        assert protocol.notices_sent == 1


class TestCorrectness:
    @pytest.mark.parametrize("page_size", [256, 4096])
    def test_consistent_on_all_apps(self, app_trace, page_size):
        assert check_protocol(app_trace, "HLRC", page_size=page_size).ok

    def test_lock_chain_values(self):
        trace = lock_chain_trace(n_procs=4, rounds=3)
        assert check_protocol(trace, "HLRC", page_size=512).ok


class TestTradeoffs:
    def test_memory_advantage_over_lrc(self):
        trace = small_trace("locusroute", n_procs=8)
        lrc = simulate(trace, "LI", page_size=1024)
        hlrc = simulate(trace, "HLRC", page_size=1024)
        assert (
            hlrc.counters["peak_retained_diff_bytes"]
            < 0.5 * lrc.counters["peak_retained_diff_bytes"]
        )

    def test_data_disadvantage_vs_lrc(self):
        trace = small_trace("locusroute", n_procs=8)
        lrc = simulate(trace, "LI", page_size=1024)
        hlrc = simulate(trace, "HLRC", page_size=1024)
        assert hlrc.data_bytes > lrc.data_bytes
