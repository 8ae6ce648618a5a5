"""A cold grid keeps only the state a later cell reads.

What the fetch planner and the compiled ops retain, pinned:

- the planner memoizes page plans only: a multi-page fetch merges the
  memoized page plans on every call and keeps nothing of its own;
- memoized plans with equal server lists share one ``by_server`` tuple,
  and the table that shares them holds exactly the memoized plans'
  lists, also across a memo clear;
- a compiled access op stores no seq: there is one op per event, so an
  op's position is its event's seq;
- each builder of per-page-size state hands out one object per distinct
  value: a compiled trace one op per distinct op, a run program one
  touch per (proc, page), a skeleton one tuple per distinct notice pair.
"""

from __future__ import annotations

import pytest

from repro.apps import APPS
from repro.config import SimConfig
from repro.hb.index import FetchPlanner
from repro.hb.skeleton import batch_plan
from repro.network.costs import CostModel
from repro.simulator.engine import Engine
from repro.trace.events import EventType
from repro.trace.precompile import (
    OP_ACQUIRE,
    OP_BARRIER,
    OP_READ,
    OP_READ_N,
    OP_RELEASE,
    OP_WRITE,
    OP_WRITE_N,
    split_access,
)
from repro.trace.runs import R_TOUCH
from tests.conftest import small_trace

PAGE = 1024
ACCESS_WIDTHS = {OP_READ: 4, OP_WRITE: 4, OP_READ_N: 3, OP_WRITE_N: 3}
#: Page sizes at which every fixture app repeats an op, a touch and a
#: notice pair (at 2048 B and up some send each pair once).
REPEATING_PAGE_SIZES = [512, 1024]


@pytest.fixture(scope="module")
def lazy_cells():
    """A water batch plan after an LU and an LH tape cell, and the page
    count of every multi-page fetch the two cells made."""
    trace = small_trace("water")
    compiled = trace.compiled(PAGE)
    config = SimConfig(n_procs=trace.n_procs, page_size=PAGE)
    runs = []
    plan_run = FetchPlanner.plan_run

    def counted(self, items):
        runs.append(len(items))
        return plan_run(self, items)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FetchPlanner, "plan_run", counted)
        for protocol in ("LU", "LH"):
            result = Engine(trace, config, protocol, compiled=compiled).run()
            assert result.manifest["execution_path"] == "tape"
    return batch_plan(compiled, trace.n_procs), runs


def _shared_lists_hold(planner: FetchPlanner) -> None:
    ids = {}
    for fetch_plan in planner._memo.values():
        ids.setdefault(fetch_plan.by_server, set()).add(id(fetch_plan.by_server))
    assert all(len(objects) == 1 for objects in ids.values())
    assert {id(servers) for servers in planner._servers.values()} == {
        id(fetch_plan.by_server) for fetch_plan in planner._memo.values()
    }


def test_the_planner_keeps_one_memo_and_no_run_memo(lazy_cells):
    plan, runs = lazy_cells
    assert runs and max(runs) > 1  # multi-page fetches ran
    (planner,) = plan._planners.values()
    tables = [name for name in FetchPlanner.__slots__ if isinstance(getattr(planner, name), dict)]
    assert tables == ["_memo", "_servers"]
    assert len(planner._servers) <= len(planner._memo)


def test_equal_server_lists_are_one_tuple(lazy_cells):
    plan, _runs = lazy_cells
    (planner,) = plan._planners.values()
    assert len(planner._servers) < len(planner._memo)  # lists do repeat
    _shared_lists_hold(planner)


def test_the_server_table_is_cleared_with_the_memo(lazy_cells, monkeypatch):
    plan, _runs = lazy_cells
    store = plan.store
    keys = []
    for page in sorted(store._page_mods):
        interval_ids = tuple(sorted(store.page_mods(page)))
        keys += [(page, interval_ids[:n]) for n in range(1, len(interval_ids) + 1)]
    monkeypatch.setattr(FetchPlanner, "_MEMO_LIMIT", 4)
    planner = FetchPlanner(store, CostModel(), True)
    assert len(keys) > 4
    for key in keys:
        planner.plan(*key)
        assert len(planner._memo) <= 4
        _shared_lists_hold(planner)


@pytest.mark.parametrize("page_size", [512, 8192])
@pytest.mark.parametrize("app", sorted(APPS))
def test_access_ops_carry_no_seq(app, page_size):
    trace = small_trace(app)
    ops = trace.compiled(page_size).ops
    assert len(ops) == len(trace)
    for op in ops:
        width = ACCESS_WIDTHS.get(op[0])
        if width is not None:
            assert len(op) == width



def _lowered(event, page_size: int) -> tuple:
    """``event``'s op, lowered on its own: no table, no shared chunks."""
    if event.type.is_ordinary:
        chunks = split_access(event.addr, event.size, page_size)
        read = event.type is EventType.READ
        if len(chunks) == 1:
            return (OP_READ if read else OP_WRITE, event.proc, *chunks[0])
        return (OP_READ_N if read else OP_WRITE_N, event.proc, chunks)
    if event.type is EventType.ACQUIRE:
        return (OP_ACQUIRE, event.proc, event.lock)
    if event.type is EventType.RELEASE:
        return (OP_RELEASE, event.proc, event.lock)
    return (OP_BARRIER, event.proc, event.barrier)


def _objects_and_values(values) -> tuple:
    values = list(values)
    return len({id(value) for value in values}), len(set(values)), len(values)


@pytest.mark.parametrize("page_size", REPEATING_PAGE_SIZES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_equal_ops_are_one_object(app, page_size):
    trace = small_trace(app)
    ops = trace.compiled(page_size).ops
    assert ops == [_lowered(event, page_size) for event in trace]
    objects, values, total = _objects_and_values(ops)
    assert objects == values < total


@pytest.mark.parametrize("page_size", REPEATING_PAGE_SIZES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_each_proc_page_has_one_touch(app, page_size):
    trace = small_trace(app)
    runs = batch_plan(trace.compiled(page_size), trace.n_procs).runs
    touches = [instruction for instruction in runs if instruction[0] == R_TOUCH]
    objects, values, total = _objects_and_values(touches)
    assert objects == values < total


def _notice_pairs(skeleton):
    """Every ``(page, ids)`` pair of every batch the skeleton keeps."""
    for record in skeleton.records:
        if len(record) == 6:  # acquire
            yield from record[4]
        elif len(record) == 3 and record[2] is not None:  # completing arrival
            for _n, grouped, _vc in record[2]:
                yield from grouped


@pytest.mark.parametrize("page_size", REPEATING_PAGE_SIZES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_equal_notice_pairs_are_one_tuple(app, page_size):
    trace = small_trace(app)
    skeleton = batch_plan(trace.compiled(page_size), trace.n_procs).skeleton
    objects, values, total = _objects_and_values(_notice_pairs(skeleton))
    assert objects == values < total
