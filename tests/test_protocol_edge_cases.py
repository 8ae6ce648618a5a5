"""Edge-case scenario tests across the protocol stack."""

import pytest

from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.eager_invalidate import EagerInvalidate
from repro.protocols.eager_update import EagerUpdate
from repro.protocols.lazy_invalidate import LazyInvalidate
from repro.protocols.lazy_update import LazyUpdate
from repro.simulator.engine import simulate
from repro.trace.events import Event
from tests.conftest import build_trace, interpreter_engine

PAGE = 1024


def run(protocol_cls, events, n_procs=4, **options):
    # White-box suites need the interpreter: the tapes replay without
    # maintaining page-table state.
    engine = interpreter_engine(
        build_trace(n_procs, events), protocol_cls, page_size=PAGE, **options
    )
    return engine.protocol, engine.run()


class TestMultiPageAccesses:
    def test_write_spanning_pages_dirties_both(self):
        protocol, _ = run(
            LazyInvalidate,
            [Event.acquire(0, 0), Event.write(0, PAGE - 4, 8), Event.release(0, 0)],
        )
        interval = protocol.store.get((0, 1))
        assert set(interval.modified_pages) == {0, 1}

    def test_read_spanning_pages_misses_both(self):
        protocol, result = run(EagerInvalidate, [Event.read(2, PAGE - 4, 8)])
        assert result.cold_misses == 2
        assert protocol.procs[2].pages.is_valid(0)
        assert protocol.procs[2].pages.is_valid(1)

    def test_values_across_page_boundary(self):
        events = [
            Event.acquire(1, 0),
            Event.write(1, PAGE - 4, 8),  # seq 1, words on both pages
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.read(2, PAGE - 4, 8),
            Event.release(2, 0),
        ]
        for cls in (LazyInvalidate, LazyUpdate, EagerInvalidate, EagerUpdate):
            _, result = run(cls, events, record_values=True)
            assert result.read_values[-1][1] == [1, 1], cls.name


class TestLazyEdgeCases:
    def test_acquire_of_never_held_lock_contacts_manager(self):
        # Lock 3's manager is p3; first acquire by p0 routes through it.
        _, result = run(LazyInvalidate, [Event.acquire(0, 3), Event.release(0, 3)])
        assert result.category_messages()["lock"] == 2  # forward is local to p3

    def test_self_notice_never_invalidates(self):
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x40),
            Event.release(2, 0),
            # p1 reacquires: it must not invalidate its own copy for its
            # own interval, only for p2's.
            Event.acquire(1, 0),
            Event.release(1, 0),
        ]
        protocol, _ = run(LazyInvalidate, events)
        assert protocol.entry(1, 0).state == PageState.INVALID  # p2's notice
        assert (2, protocol.store.latest_index(2)) is not None
        pending = protocol.lazy_state[1].pending[0]
        assert all(creator == 2 for creator, _ in pending)

    def test_write_to_invalidated_page_fetches_first(self):
        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),  # seq 2
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x40),  # different word; must not lose seq 2
            Event.release(2, 0),
        ]
        protocol, _ = run(LazyInvalidate, events)
        page = protocol.entry(2, 0).page
        assert page.read(0) == 2  # p1's write survived p2's write-miss
        assert page.read(16) == 5

    def test_barrier_master_participates_without_messages(self):
        events = [Event.write(0, 0x0)] + [Event.at_barrier(p, 0) for p in range(4)]
        _, result = run(LazyInvalidate, events)
        # Master (p0) is the writer: its notices reach clients on exits;
        # no arrival message from itself.
        arrivals = result.stats.messages_of(MessageKind.BARRIER_ARRIVAL)
        assert arrivals == 3

    def test_consecutive_barriers(self):
        events = []
        for episode in range(3):
            events += [Event.at_barrier(p, 0) for p in range(3)]
        _, result = run(LazyInvalidate, events, n_procs=3)
        assert result.category_messages()["barrier"] == 3 * 4

    def test_two_locks_interleaved(self):
        events = [
            Event.acquire(1, 1),
            Event.acquire(1, 2),
            Event.write(1, 0x0),
            Event.release(1, 2),
            Event.release(1, 1),
            Event.acquire(2, 2),
            Event.read(2, 0x0),
            Event.release(2, 2),
        ]
        _, result = run(LazyInvalidate, events, record_values=True)
        # p2 synchronized through lock 2, whose release happened after
        # the write — it must see it.
        assert result.read_values[-1][1] == [2]


class TestLazyUpdateEdgeCases:
    def test_pull_covers_multiple_pages_in_one_pair(self):
        """One modifier, two pages: a single request/reply pair."""
        events = [
            Event.read(2, 0x0),
            Event.read(2, PAGE),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.write(1, PAGE),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.release(2, 0),
        ]
        _, result = run(LazyUpdate, events)
        assert result.stats.messages_of(MessageKind.ACQUIRE_DIFF_REQUEST) == 1

    def test_pull_payload_aggregates_pages(self):
        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0, 8),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.release(2, 0),
        ]
        _, result = run(LazyUpdate, events)
        reply_bytes = result.stats.by_kind[MessageKind.ACQUIRE_DIFF_REPLY].data_bytes
        # One run of two words: 8 header + 8 data.
        assert reply_bytes == 16


class TestEagerEdgeCases:
    def test_release_without_modifications_is_free(self):
        _, result = run(EagerUpdate, [Event.acquire(1, 0), Event.release(1, 0)])
        assert result.category_messages()["unlock"] == 0

    def test_two_releases_flush_incrementally(self):
        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(1, 0),
            Event.release(1, 0),  # nothing new modified
        ]
        _, result = run(EagerUpdate, events)
        assert result.stats.messages_of(MessageKind.UPDATE) == 1

    def test_ei_owner_transfer_chain(self):
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x4),
            Event.release(2, 0),
            Event.acquire(3, 0),
            Event.read(3, 0x0, 8),
            Event.release(3, 0),
        ]
        protocol, result = run(EagerInvalidate, events, record_values=True)
        assert protocol.directory.owner_of(0) == 2
        assert result.read_values[-1][1] == [1, 4]

    def test_update_payload_counts_diff_bytes(self):
        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0, 16),
            Event.release(1, 0),
        ]
        _, result = run(EagerUpdate, events)
        update_bytes = result.stats.by_kind[MessageKind.UPDATE].data_bytes
        assert update_bytes == 8 + 16  # one run header + four words


class TestDegenerateConfigs:
    def test_single_processor_no_traffic(self):
        events = [
            Event.acquire(0, 0),
            Event.write(0, 0x0),
            Event.release(0, 0),
            Event.read(0, 0x0),
        ]
        for name in ("LI", "LU", "EI", "EU", "EW", "LH"):
            result = simulate(build_trace(1, events), name, page_size=PAGE)
            assert result.data_bytes == 0, name

    def test_empty_trace(self):
        for name in ("LI", "EU"):
            result = simulate(build_trace(2, []), name, page_size=PAGE)
            assert result.messages == 0 and result.events == 0

    def test_reads_only_trace(self):
        events = [Event.read(p, 0x0) for p in range(3)]
        result = simulate(build_trace(3, events), "LI", page_size=PAGE, record_values=True)
        assert all(values == [0] for _, values in result.read_values)

    def test_tiny_page_size(self):
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0, 64),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.read(2, 0x0, 64),
            Event.release(2, 0),
        ]
        result = simulate(build_trace(3, events), "LI", page_size=16, record_values=True)
        assert result.read_values[-1][1] == [1] * 16
