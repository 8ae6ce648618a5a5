"""Scenario tests for the eager protocols (EI, EU) and their directory."""

import pytest

from repro.config import SimConfig
from repro.memory.page import PageState
from repro.network.message import MessageKind
from repro.protocols.eager_invalidate import EagerInvalidate
from repro.protocols.eager_update import EagerUpdate
from repro.simulator.engine import Engine, simulate
from repro.trace.events import Event
from tests.conftest import build_trace, interpreter_engine

PAGE = 1024


def run(protocol_cls, events, n_procs=4, **options):
    # These suites inspect protocol internals (page tables, copysets)
    # after the run, so they need the interpreter: the eager tapes do
    # not maintain that state (equivalence of results is pinned
    # separately in tests/test_batched_kernels.py).
    engine = interpreter_engine(
        build_trace(n_procs, events), protocol_cls, page_size=PAGE, **options
    )
    result = engine.run()
    return engine.protocol, result


class TestDirectoryMisses:
    def test_first_touch_served_by_manager(self):
        # Page 1's manager is p1; p2's cold miss: request + reply = 2.
        protocol, result = run(EagerInvalidate, [Event.read(2, PAGE)])
        assert result.category_messages()["miss"] == 2
        assert result.stats.messages_of(MessageKind.PAGE_FORWARD) == 0
        assert protocol.directory.owner_of(1) == 2

    def test_manager_self_service_free(self):
        # Page 1's manager is p1 itself: zero messages.
        _, result = run(EagerInvalidate, [Event.read(1, PAGE)])
        assert result.messages == 0

    def test_forwarded_miss_costs_three(self):
        events = [
            Event.acquire(2, 0),
            Event.write(2, PAGE),  # p2 owns page 1 after its miss
            Event.release(2, 0),
            Event.acquire(3, 0),
            Event.read(3, PAGE),  # manager p1 lacks a copy: forward to p2
            Event.release(3, 0),
        ]
        _, result = run(EagerInvalidate, events)
        assert result.stats.messages_of(MessageKind.PAGE_FORWARD) == 1

    def test_copyset_tracks_fetchers(self):
        protocol, _ = run(
            EagerUpdate, [Event.read(0, PAGE), Event.read(2, PAGE), Event.read(3, PAGE)]
        )
        assert protocol.directory.cachers(1) == {0, 2, 3}


class TestEagerInvalidate:
    def release_events(self):
        return [
            Event.read(2, 0x0),
            Event.read(3, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
        ]

    def test_release_invalidates_other_cachers(self):
        protocol, _ = run(EagerInvalidate, self.release_events())
        assert protocol.entry(2, 0).state == PageState.INVALID
        assert protocol.entry(3, 0).state == PageState.INVALID
        assert protocol.directory.cachers(0) == {1}
        assert protocol.directory.owner_of(0) == 1

    def test_release_messages_merged_per_destination(self):
        _, result = run(EagerInvalidate, self.release_events())
        # Two cachers: one notice + one ack each.
        assert result.stats.messages_of(MessageKind.WRITE_NOTICE) == 2
        assert result.stats.messages_of(MessageKind.RELEASE_ACK) == 2

    def test_invalidated_reader_refetches_whole_page(self):
        events = self.release_events() + [Event.read(2, 0x0)]
        _, result = run(EagerInvalidate, events)
        # Full page bytes on the refetch reply.
        assert result.category_data_bytes()["miss"] >= 2 * PAGE

    def test_acquire_does_nothing_consistency_wise(self):
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.release(2, 0),
        ]
        protocol, _ = run(EagerInvalidate, events)
        # p2 learned nothing; its next read will go through the directory.
        assert protocol.entry(2, 0).state == PageState.MISSING

    def test_excess_invalidator_reconciles(self):
        events = [
            # False sharing: both write page 0 under different locks.
            Event.acquire(1, 1),
            Event.acquire(2, 2),
            Event.write(1, 0x0),
            Event.write(2, 0x40),
            Event.release(1, 1),  # invalidates p2 (dirty): p2 now excess
            Event.release(2, 2),  # reconcile: diff to owner p1
        ]
        protocol, result = run(EagerInvalidate, events)
        assert protocol.reconciles == 1
        assert result.stats.messages_of(MessageKind.OWNER_RECONCILE) == 1
        # Owner's copy carries both writes.
        owner_page = protocol.entry(1, 0).page
        assert owner_page.read(0) == 2 and owner_page.read(16) == 3

    def test_reconcile_invalidates_stale_valid_cachers(self):
        events = [
            Event.acquire(1, 1),
            Event.acquire(2, 2),
            Event.write(1, 0x0),
            Event.write(2, 0x40),
            Event.release(1, 1),
            Event.read(3, 0x0),  # p3 fetches from owner p1 (lacks p2's words)
            Event.release(2, 2),  # reconcile must invalidate p3 too
        ]
        protocol, _ = run(EagerInvalidate, events)
        assert protocol.entry(3, 0).state == PageState.INVALID


class TestEagerUpdate:
    def test_release_updates_all_cachers_in_place(self):
        events = [
            Event.read(2, 0x0),
            Event.read(3, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),  # seq 3
            Event.release(1, 0),
        ]
        protocol, result = run(EagerUpdate, events)
        assert protocol.entry(2, 0).state == PageState.VALID
        assert protocol.entry(2, 0).page.read(0) == 3
        assert protocol.entry(3, 0).page.read(0) == 3
        assert result.stats.messages_of(MessageKind.UPDATE) == 2

    def test_copyset_never_shrinks(self):
        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
        ]
        protocol, result = run(EagerUpdate, events)
        assert protocol.directory.cachers(0) == {2, 1}
        # p2 was updated twice: the Figure 3 repeated-update problem.
        assert result.stats.messages_of(MessageKind.UPDATE) == 2

    def test_update_preserves_concurrent_local_writes(self):
        events = [
            Event.acquire(2, 2),
            Event.write(2, 0x40),  # p2 dirty on page 0 (false sharing)
            Event.acquire(1, 1),
            Event.write(1, 0x0),
            Event.release(1, 1),  # pushes update to p2
            Event.release(2, 2),
        ]
        protocol, _ = run(EagerUpdate, events)
        page = protocol.entry(2, 0).page
        assert page.read(16) == 1  # own write survived
        assert page.read(0) == 3  # update applied

    def test_no_invalid_misses_ever(self, app_trace):
        result = simulate(app_trace, "EU", page_size=512)
        assert result.invalid_misses == 0


class TestEagerBarriers:
    def barrier_events(self):
        return [
            Event.read(1, 0x0),
            Event.read(2, 0x0),
            Event.write(0, 0x0),
            Event.at_barrier(0, 0),
            Event.at_barrier(1, 0),
            Event.at_barrier(2, 0),
            Event.at_barrier(3, 0),
        ]

    def test_ei_barrier_pushes_invalidations(self):
        protocol, result = run(EagerInvalidate, self.barrier_events())
        assert result.stats.messages_of(MessageKind.BARRIER_NOTICE) == 2
        assert protocol.entry(1, 0).state == PageState.INVALID

    def test_eu_barrier_pushes_updates(self):
        protocol, result = run(EagerUpdate, self.barrier_events())
        assert result.stats.messages_of(MessageKind.BARRIER_UPDATE) == 2
        assert protocol.entry(1, 0).page.read(0) == 2

    def test_barrier_base_messages(self):
        _, result = run(EagerInvalidate, [Event.at_barrier(p, 0) for p in range(4)])
        assert result.category_messages()["barrier"] == 6

    def test_ei_barrier_excess_invalidators(self):
        events = [
            Event.write(1, 0x0),
            Event.write(2, 0x40),  # false sharing, no locks (phase-private)
            Event.at_barrier(0, 0),
            Event.at_barrier(1, 0),  # first flusher wins ownership
            Event.at_barrier(2, 0),  # excess invalidator reconciles
            Event.at_barrier(3, 0),
        ]
        protocol, result = run(EagerInvalidate, events)
        assert result.stats.messages_of(MessageKind.BARRIER_RECONCILE) == 1
        owner = protocol.directory.owner_of(0)
        page = protocol.entry(owner, 0).page
        assert page.read(0) == 0 and page.read(16) == 1


class TestAckCounting:
    def test_acks_can_be_excluded(self):
        from repro.network.costs import CostModel

        events = [
            Event.read(2, 0x0),
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
        ]
        with_acks = SimConfig(n_procs=4, page_size=PAGE)
        without = SimConfig(
            n_procs=4, page_size=PAGE, cost_model=CostModel(count_acks=False)
        )
        trace = build_trace(4, events)
        counted = Engine(trace, with_acks, EagerInvalidate).run()
        uncounted = Engine(trace, without, EagerInvalidate).run()
        assert counted.messages == uncounted.messages + 1
