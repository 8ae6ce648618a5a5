"""Unit tests for intervals, write notices, the interval store, and the
event-level happened-before graph."""

import pytest

from repro.common.vector_clock import VectorClock
from repro.hb.graph import HbGraph
from repro.hb.interval import Interval
from repro.hb.store import IntervalStore
from repro.hb.write_notice import WriteNotice
from repro.memory.diff import Diff
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace


def make_interval(proc, index, entries, pages=()):
    interval = Interval(proc, index, VectorClock(entries))
    for page in pages:
        interval.add_diff(Diff(page, proc, index, {0: 1}))
    interval.close()
    return interval


class TestInterval:
    def test_vc_own_entry_must_match(self):
        with pytest.raises(ValueError):
            Interval(0, 3, VectorClock([1, -1]))

    def test_add_diff_validations(self):
        interval = Interval(0, 0, VectorClock([0, -1]))
        interval.add_diff(Diff(5, 0, 0, {0: 1}))
        with pytest.raises(ValueError):
            interval.add_diff(Diff(5, 0, 0, {1: 2}))  # duplicate page
        with pytest.raises(ValueError):
            interval.add_diff(Diff(6, 1, 0, {0: 1}))  # wrong creator
        interval.close()
        with pytest.raises(ValueError):
            interval.add_diff(Diff(7, 0, 0, {0: 1}))  # closed

    def test_precedes_program_order(self):
        a = make_interval(0, 0, [0, -1])
        b = make_interval(0, 1, [1, -1])
        assert a.precedes(b) and not b.precedes(a)

    def test_precedes_across_procs(self):
        a = make_interval(0, 0, [0, -1])
        b = make_interval(1, 0, [0, 0])  # b has seen a's interval 0
        assert a.precedes(b)
        assert not b.precedes(a)


class TestIntervalStore:
    def test_dense_indices_enforced(self):
        store = IntervalStore(2)
        store.add(make_interval(0, 0, [0, -1]))
        with pytest.raises(ValueError):
            store.add(make_interval(0, 2, [2, -1]))

    def test_get_and_latest(self):
        store = IntervalStore(2)
        interval = make_interval(1, 0, [-1, 0])
        store.add(interval)
        assert store.get((1, 0)) is interval
        assert store.latest_index(1) == 0
        assert store.latest_index(0) == -1
        with pytest.raises(KeyError):
            store.get((1, 5))

    def test_intervals_of_range(self):
        store = IntervalStore(1)
        for i in range(4):
            store.add(make_interval(0, i, [i]))
        assert [iv.index for iv in store.intervals_of(0, 1, 2)] == [1, 2]
        with pytest.raises(KeyError):
            store.intervals_of(0, 0, 9)

    def test_len_and_iter(self):
        store = IntervalStore(2)
        store.add(make_interval(0, 0, [0, -1]))
        store.add(make_interval(1, 0, [-1, 0]))
        assert len(store) == 2
        assert len(list(store)) == 2


class TestWriteNotice:
    def test_ordering_and_id(self):
        notice = WriteNotice(2, 5, 9)
        assert notice.interval_id == (2, 5)
        assert WriteNotice(1, 0, 0) < WriteNotice(2, 0, 0)


class TestHbGraph:
    def test_program_order(self):
        trace = build_trace(2, [Event.write(0, 0), Event.read(0, 0)])
        hb = HbGraph(trace)
        assert hb.happens_before(0, 1)
        assert not hb.happens_before(1, 0)

    def test_lock_release_acquire_orders(self):
        trace = lock_chain_trace(n_procs=2, rounds=1)
        hb = HbGraph(trace)
        # p0's write (seq 2) precedes p1's read (seq 5) via the lock.
        assert hb.happens_before(2, 5)

    def test_unsynchronized_concurrent(self):
        trace = build_trace(2, [Event.write(0, 0x0), Event.write(1, 0x100)])
        hb = HbGraph(trace)
        assert hb.concurrent(0, 1)

    def test_barrier_orders_everything(self):
        trace = build_trace(
            2,
            [
                Event.write(0, 0x0),
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),
                Event.read(1, 0x0),
            ],
        )
        hb = HbGraph(trace)
        assert hb.happens_before(0, 3)

    def test_barrier_id_reuse(self):
        trace = build_trace(
            2,
            [
                Event.write(0, 0x0),
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),
                Event.write(1, 0x0),
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),
                Event.read(0, 0x0),
            ],
        )
        hb = HbGraph(trace)
        assert hb.happens_before(3, 6)

    def test_transitivity_through_two_locks(self):
        trace = build_trace(
            3,
            [
                Event.write(0, 0x0),
                Event.acquire(0, 1),
                Event.release(0, 1),
                Event.acquire(1, 1),
                Event.release(1, 1),
                Event.acquire(1, 2),
                Event.release(1, 2),
                Event.acquire(2, 2),
                Event.read(2, 0x0),
                Event.release(2, 2),
            ],
        )
        hb = HbGraph(trace)
        assert hb.happens_before(0, 8)

    def test_races_detects_unordered_conflict(self):
        trace = build_trace(2, [Event.write(0, 0x0), Event.write(1, 0x0)])
        races = HbGraph(trace).races()
        assert len(races) == 1

    def test_races_ignores_ordered_conflict(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        assert HbGraph(trace).races() == []

    def test_races_ignores_read_read(self):
        trace = build_trace(2, [Event.read(0, 0x0), Event.read(1, 0x0)])
        assert HbGraph(trace).races() == []


class TestAppsAreRaceFree:
    def test_app_traces_have_no_races(self, app_trace):
        assert HbGraph(app_trace).races(max_reported=1) == []


class TestRunFetchPlanner:
    """Run-level fetch plans must equal folding per-page plans by hand."""

    @staticmethod
    def _planner_and_pages():
        from repro.hb.skeleton import batch_plan
        from repro.network.costs import CostModel
        from tests.conftest import small_trace

        trace = small_trace("water")
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        planner = plan.planner_for(CostModel(), True)
        store = plan.store
        pages = sorted(p for p in store._page_mods if store.page_mods(p))
        return planner, store, pages

    def test_run_plan_matches_per_page_merge(self):
        planner, store, pages = self._planner_and_pages()
        assert len(pages) >= 2
        items = tuple((page, tuple(sorted(store.page_mods(page)))) for page in pages[:6])
        run_plan = planner.plan_run(items)
        merged = {}
        for page, interval_ids in items:
            for server, count, payload in planner.plan(page, interval_ids).by_server:
                totals = merged.setdefault(server, [0, 0])
                totals[0] += count
                totals[1] += payload
        expected = tuple((s, merged[s][0], merged[s][1]) for s in sorted(merged))
        assert run_plan.by_server == expected
        # Page plans ride along in faulting order for the apply loop.
        assert tuple(p.page for p in run_plan.plans) == tuple(p for p, _ in items)

    def test_run_plan_is_rebuilt_equal(self):
        # Run plans are not memoized: a repeat is a new, equal merge
        # over the same memoized page plans.
        planner, store, pages = self._planner_and_pages()
        items = tuple((page, tuple(sorted(store.page_mods(page)))) for page in pages[:4])
        first, again = planner.plan_run(items), planner.plan_run(items)
        assert first is not again
        assert again.by_server == first.by_server
        assert all(a is b for a, b in zip(again.plans, first.plans))
        # A different run shape is a different plan.
        assert planner.plan_run(items[:1]).by_server != first.by_server

    def test_run_plan_subset_pending(self):
        planner, store, pages = self._planner_and_pages()
        page = next(p for p in pages if len(store.page_mods(p)) >= 2)
        interval_ids = sorted(store.page_mods(page))
        full = planner.plan_run(((page, tuple(interval_ids)),))
        sub = planner.plan_run(((page, tuple(interval_ids[:1])),))
        assert full is not sub
        assert sub.by_server[0][1] == 1  # a single pending diff
