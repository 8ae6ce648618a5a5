"""A run builds only what its loop reads.

A protocol is constructed with its config, ledger and counters; the
tables are built by the loop that reads them (``Protocol.bind_interpreter``
for the interpreter and the oracle, ``bind_batch_plan`` for a tape
replay). These tests count the constructions of the three tables that
dominated a small run's fixed cost — ``PageTable``, ``IntervalStore``
and ``FetchPlanner`` — around each loop:

- a warm cell folds its priced tape and builds none of them, under
  every protocol;
- a lazy tape replay binds the plan's own store and planner, and builds
  only the page tables its kernels touch;
- the interpreter (``record_values``) builds the page tables its
  hooks read and, lazy, binds the plan's store and planner as a tape
  replay does; the test oracle's ``ReferenceEngine`` builds its own
  store.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.config import SimConfig
from repro.hb.index import FetchPlanner
from repro.hb.skeleton import batch_plan
from repro.hb.store import IntervalStore
from repro.memory.page import PageTable
from repro.protocols.registry import all_protocol_names, protocol_class
from repro.simulator.engine import Engine
from tests.conftest import small_trace
from tests.reference_oracle import ReferenceEngine, ReferenceScans, ReferenceStore

ALL = all_protocol_names()
LAZY = [name for name in ALL if protocol_class(name).lazy]
TABLES = (PageTable, IntervalStore, FetchPlanner)
PAGE = 1024


@contextmanager
def counting_builds(monkeypatch):
    """Counts every construction of the three tables, by class name."""
    built: Counter = Counter()
    for cls in TABLES:
        original = cls.__init__

        def counted(self, *args, __original=original, __name=cls.__name__, **kwargs):
            built[__name] += 1
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    yield built
    monkeypatch.undo()


def config_for(trace, **options) -> SimConfig:
    return SimConfig(n_procs=trace.n_procs, page_size=PAGE, **options)


@pytest.mark.parametrize("protocol", ALL)
def test_warm_folded_cell_builds_no_table(monkeypatch, protocol):
    trace = small_trace("water")
    config = config_for(trace)
    for _ in range(2):  # cold, then the run that keeps the lazy priced tape
        Engine(trace, config, protocol).run()
    with counting_builds(monkeypatch) as built:
        engine = Engine(trace, config, protocol)
        result = engine.run()
    assert result.manifest["execution_path"] == "tape"
    assert result.manifest["record"]["priced"] == "reused"  # the fold
    assert not built, dict(built)
    assert engine.protocol.procs == ()
    assert result.messages > 0


@pytest.mark.parametrize("protocol", LAZY)
def test_lazy_tape_replay_binds_the_plans_store_and_planner(monkeypatch, protocol):
    trace = small_trace("water")
    config = config_for(trace)
    plan = batch_plan(trace.compiled(PAGE), trace.n_procs)
    planner = plan.planner_for(config.cost_model, config.skip_overwritten_diffs)
    with counting_builds(monkeypatch) as built:
        engine = Engine(trace, config, protocol)
        result = engine.run()
    assert result.manifest["execution_path"] == "tape"
    assert "record" not in result.manifest  # the kernels ran; nothing folded
    ran = engine.protocol
    assert ran.store is plan.store
    assert ran._planner is planner
    assert dict(built) == {"PageTable": trace.n_procs}
    assert len(ran.procs) == len(ran.lazy_state) == trace.n_procs


@pytest.mark.parametrize("protocol", ALL)
def test_interpreter_builds_every_table_its_hooks_read(monkeypatch, protocol):
    """The hooks' page tables and directories; a lazy protocol's hooks
    replay the plan's skeleton, so they bind its store and planner as
    the kernels do and build neither."""
    trace = small_trace("water")
    config = config_for(trace, record_values=True)
    plan = batch_plan(trace.compiled(PAGE), trace.n_procs)
    planner = plan.planner_for(config.cost_model, config.skip_overwritten_diffs)
    with counting_builds(monkeypatch) as built:
        engine = Engine(trace, config, protocol)
        result = engine.run()
    assert result.manifest["execution_path"] == "per_event"
    assert dict(built) == {"PageTable": trace.n_procs}
    ran = engine.protocol
    assert len(ran.procs) == trace.n_procs
    assert ran.locks is not None and ran.barriers is not None
    if protocol_class(protocol).lazy:
        assert ran.store is plan.store and ran._planner is planner


@pytest.mark.parametrize("protocol", ALL)
def test_reference_builds_the_tables_its_scans_read(monkeypatch, protocol):
    """The oracle builds the page tables and a lazy protocol's own
    interval store, a ReferenceStore; its reference scans read no fetch
    planner, so none is built."""
    trace = small_trace("water")
    with counting_builds(monkeypatch) as built:
        engine = ReferenceEngine(trace, config_for(trace), protocol)
        engine.run()
    expected = {"PageTable": trace.n_procs}
    if protocol_class(protocol).lazy:
        expected["IntervalStore"] = 1
        ran = engine.protocol
        assert isinstance(ran, ReferenceScans) and type(ran.store) is ReferenceStore
        assert not hasattr(ran, "_planner")
    assert dict(built) == expected
