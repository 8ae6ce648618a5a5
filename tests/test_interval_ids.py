"""One id object per modifying interval, owned by the interval store.

A write notice names an interval ``(creator, index)``. The skeleton's
notice batches, the protocols' pending sets and the fetch planner's memo
keys all hold the store's own id tuple for it
(``IntervalStore.ids[creator][index]``), never a copy, and a
plan key is the pending set as a sorted tuple of those ids. These pins
keep the sharing — and with it the memory of a cold grid — from quietly
coming undone.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.hb.skeleton import batch_plan
from repro.simulator.engine import Engine
from tests.conftest import small_trace


def _grouped_batches(skeleton):
    """Every ``grouped`` notice batch of the skeleton's sync records."""
    for record in skeleton.records:
        if len(record) == 6:  # acquire
            yield record[4]
        elif len(record) == 3 and record[2] is not None:  # completing arrival
            for _n, grouped, _vc in record[2]:
                yield grouped


def _memo_keys(plan):
    """Every ``(page, ids)`` key in the plan's fetch planners' memos."""
    for planner in plan._planners.values():
        yield from planner._memo


@pytest.fixture(scope="module", params=["LI", "LU"])
def ran_cell(request):
    trace = small_trace("water")
    compiled = trace.compiled(1024)
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    result = Engine(trace, config, request.param, compiled=compiled).run()
    assert result.manifest["execution_path"] == "tape"
    return batch_plan(compiled, trace.n_procs)


def test_notice_batches_hold_the_store_ids(ran_cell):
    store = ran_cell.skeleton.store
    seen = 0
    for grouped in _grouped_batches(ran_cell.skeleton):
        for _page, interval_ids in grouped:
            for interval_id in interval_ids:
                assert interval_id is store.ids[interval_id[0]][interval_id[1]]
                seen += 1
    assert seen


def test_plan_keys_are_sorted_tuples_of_the_store_ids(ran_cell):
    store = ran_cell.skeleton.store
    keys = list(_memo_keys(ran_cell))
    assert keys
    for _page, interval_ids in keys:
        assert type(interval_ids) is tuple
        assert list(interval_ids) == sorted(interval_ids)
        for interval_id in interval_ids:
            assert interval_id is store.ids[interval_id[0]][interval_id[1]]


def test_interpreter_pending_sets_hold_the_store_ids():
    # The per-event loop receives notices, not batches: each pending
    # entry is looked up in the store, never sliced off the notice.
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024, record_values=True)
    engine = Engine(trace, config, "LI")
    engine.run()
    protocol = engine.protocol
    store = protocol.store
    seen = 0
    for state in protocol.lazy_state:
        for interval_ids in state.pending.values():
            for interval_id in interval_ids:
                assert interval_id is store.ids[interval_id[0]][interval_id[1]]
                seen += 1
    assert seen
