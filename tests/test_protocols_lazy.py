"""Scenario tests for the lazy protocols (LI, LU) and their shared base."""

import pytest

from repro.config import SimConfig
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.lazy_invalidate import LazyInvalidate
from repro.protocols.lazy_update import LazyUpdate
from repro.simulator.engine import Engine, simulate
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace

PAGE = 1024


def run(protocol_cls, events, n_procs=4, **options):
    config = SimConfig(n_procs=n_procs, page_size=PAGE, **options)
    engine = Engine(build_trace(n_procs, events), config, protocol_cls)
    result = engine.run()
    return engine.protocol, result


def kind_delta(protocol_cls, events, split, kind, n_procs=4, **options):
    """Messages of ``kind`` caused by events from index ``split`` on."""
    _, before = run(protocol_cls, events[:split], n_procs, **options)
    _, after = run(protocol_cls, events, n_procs, **options)
    return after.stats.messages_of(kind) - before.stats.messages_of(kind)


class TestIntervals:
    def test_interval_closed_at_each_special_access(self):
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.acquire(0, 0),
                Event.write(0, 0x0),
                Event.release(0, 0),
            ],
        )
        # acquire + release each closed one interval on p0.
        assert protocol.store.latest_index(0) == 1

    def test_diffs_attached_to_closing_interval(self):
        protocol, _ = run(
            LazyInvalidate,
            [Event.acquire(0, 0), Event.write(0, 0x10, 8), Event.release(0, 0)],
        )
        interval = protocol.store.get((0, 1))
        diff = interval.diff_for(0)
        assert diff is not None and set(diff.words) == {4, 5}

    def test_empty_interval_has_no_diffs(self):
        protocol, _ = run(LazyInvalidate, [Event.acquire(0, 0), Event.release(0, 0)])
        assert protocol.store.get((0, 0)).modified_pages == ()

    def test_vector_clocks_merge_on_acquire(self):
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        # p2 merged p1's clock when it took the lock.
        assert protocol.lazy_state[2].vc[1] >= 1


class TestReleaseIsLocal:
    def test_release_sends_no_messages(self):
        protocol, result = run(
            LazyInvalidate,
            [Event.acquire(0, 0), Event.write(0, 0x0), Event.release(0, 0)],
        )
        assert result.category_messages()["unlock"] == 0

    def test_unlock_category_always_zero_on_apps(self, app_trace):
        result = simulate(app_trace, "LI", page_size=512)
        assert result.category_messages()["unlock"] == 0


class TestWriteNotices:
    def test_grant_carries_notices(self):
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        assert protocol.notices_sent == 1

    def test_no_duplicate_notices(self):
        """An interval is announced to a processor at most once."""
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
            free_local_lock_reacquire=False,
        )
        # Second (re)acquire by p2 learns nothing new.
        assert protocol.notices_sent == 1

    def test_own_intervals_never_pending(self):
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(1, 0),
                Event.release(1, 0),
            ],
            free_local_lock_reacquire=False,
        )
        assert protocol.lazy_state[1].pending == {}


class TestLazyInvalidate:
    def test_notice_invalidates_cached_page(self):
        protocol, _ = run(
            LazyInvalidate,
            [
                Event.read(2, 0x0),  # p2 caches page 0
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        assert protocol.entry(2, 0).state == PageState.INVALID

    def test_uncached_page_not_fetched(self):
        protocol, result = run(
            LazyInvalidate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        assert protocol.diffs_fetched == 0
        assert protocol.entry(2, 0).state == PageState.MISSING

    def test_miss_on_invalid_copy_fetches_diffs_only(self):
        protocol, result = run(
            LazyInvalidate,
            [
                Event.read(2, 0x0),
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.read(2, 0x0),
                Event.release(2, 0),
            ],
        )
        assert protocol.invalid_misses == 1
        # Diff request/reply only; no PAGE_REPLY beyond the two cold misses.
        assert result.stats.messages_of(MessageKind.DIFF_REQUEST) == 1
        assert result.stats.messages_of(MessageKind.DIFF_REPLY) == 1

    def test_miss_applies_values(self):
        protocol, result = run(
            LazyInvalidate,
            [
                Event.read(2, 0x0),
                Event.acquire(1, 0),
                Event.write(1, 0x0),  # seq 2
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.read(2, 0x0),
                Event.release(2, 0),
            ],
            record_values=True,
        )
        final_read = result.read_values[-1]
        assert final_read[1] == [2]


class TestLazyUpdate:
    def test_acquire_pulls_for_cached_pages(self):
        protocol, result = run(
            LazyUpdate,
            [
                Event.read(2, 0x0),  # p2 caches page 0
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        assert protocol.entry(2, 0).state == PageState.VALID
        assert result.stats.messages_of(MessageKind.ACQUIRE_DIFF_REQUEST) == 1
        assert result.stats.messages_of(MessageKind.ACQUIRE_DIFF_REPLY) == 1

    def test_no_pull_for_uncached_pages(self):
        protocol, result = run(
            LazyUpdate,
            [
                Event.acquire(1, 0),
                Event.write(1, 0x0),
                Event.release(1, 0),
                Event.acquire(2, 0),
                Event.release(2, 0),
            ],
        )
        assert result.stats.messages_of(MessageKind.ACQUIRE_DIFF_REQUEST) == 0
        assert protocol.lazy_state[2].pending != {}

    def test_only_cold_misses(self, app_trace):
        result = simulate(app_trace, "LU", page_size=512)
        assert result.invalid_misses == 0


class TestConcurrentLastModifiers:
    def events_false_sharing(self):
        """p1 and p2 modify disjoint words of page 0 concurrently."""
        return [
            Event.read(3, 0x0),
            Event.acquire(1, 1),
            Event.write(1, 0x0),
            Event.release(1, 1),
            Event.acquire(2, 2),
            Event.write(2, 0x40),
            Event.release(2, 2),
            Event.acquire(3, 1),
            Event.release(3, 1),
            Event.acquire(3, 2),
            Event.release(3, 2),
            Event.read(3, 0x0, 0x44),
        ]

    def test_concurrent_modifiers_both_contacted(self):
        events = self.events_false_sharing()
        # The final read's miss contacts both concurrent last modifiers.
        delta = kind_delta(
            LazyInvalidate, events, len(events) - 1, MessageKind.DIFF_REQUEST
        )
        assert delta == 2

    def test_ordered_modifiers_one_server(self):
        """Lock-chained modifications come from the last modifier only."""
        events = [
            Event.read(3, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x40),
            Event.release(2, 0),
            Event.acquire(3, 0),
            Event.read(3, 0x0, 0x44),
            Event.release(3, 0),
        ]
        delta = kind_delta(
            LazyInvalidate, events, len(events) - 2, MessageKind.DIFF_REQUEST
        )
        assert delta == 1
        # Page contents live on the value-tracking path only.
        protocol, _ = run(LazyInvalidate, events, record_values=True)
        # The single reply still carries both modifications' words.
        assert protocol.entry(3, 0).page.read(0) == 2  # p1's write seq
        assert protocol.entry(3, 0).page.read(16) == 5  # p2's write seq

    def test_overwritten_diff_prunable(self):
        """A fully overwritten diff does not travel when pruning is on."""
        events = [
            Event.read(3, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x0),  # overwrites the same word
            Event.release(2, 0),
            Event.acquire(3, 0),
            Event.read(3, 0x0),
            Event.release(3, 0),
        ]
        # Page contents live on the value-tracking path only.
        on_protocol, _ = run(
            LazyInvalidate, events, skip_overwritten_diffs=True, record_values=True
        )
        off_protocol, _ = run(
            LazyInvalidate, events, skip_overwritten_diffs=False, record_values=True
        )
        assert on_protocol.diffs_fetched < off_protocol.diffs_fetched
        # Both end up with the final value.
        assert on_protocol.entry(3, 0).page.read(0) == 5
        assert off_protocol.entry(3, 0).page.read(0) == 5


class TestLazyBarriers:
    def barrier_events(self):
        return [
            Event.read(1, 0x0),
            Event.write(0, 0x0),
            Event.at_barrier(0, 0),
            Event.at_barrier(1, 0),
            Event.at_barrier(2, 0),
            Event.at_barrier(3, 0),
            Event.read(1, 0x0),
        ]

    def test_li_invalidates_at_barrier(self):
        protocol, result = run(LazyInvalidate, self.barrier_events()[:-1])
        assert protocol.entry(1, 0).state == PageState.INVALID
        # 2(n-1) barrier messages, nothing extra.
        assert result.category_messages()["barrier"] == 6

    def test_lu_pulls_at_barrier_exit(self):
        protocol, result = run(LazyUpdate, self.barrier_events()[:-1])
        assert protocol.entry(1, 0).state == PageState.VALID
        assert result.stats.messages_of(MessageKind.BARRIER_UPDATE_REQUEST) == 1

    def test_li_read_after_barrier_sees_value(self):
        protocol, result = run(LazyInvalidate, self.barrier_events(), record_values=True)
        assert result.read_values[-1][1] == [1]

    def test_local_reacquire_free_flag(self):
        events = [
            Event.acquire(1, 0),
            Event.release(1, 0),
            Event.acquire(1, 0),
            Event.release(1, 0),
        ]
        _, free = run(LazyInvalidate, events, free_local_lock_reacquire=True)
        _, paid = run(LazyInvalidate, events, free_local_lock_reacquire=False)
        assert free.category_messages()["lock"] < paid.category_messages()["lock"]


class TestPiggybackAblation:
    def test_separate_notice_messages_cost_more(self):
        trace_events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.release(2, 0),
        ]
        _, on = run(LazyInvalidate, trace_events, piggyback_notices=True)
        _, off = run(LazyInvalidate, trace_events, piggyback_notices=False)
        assert off.messages == on.messages + 1
        assert off.stats.messages_of(MessageKind.LOCK_NOTICE) == 1
