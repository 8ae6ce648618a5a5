"""No entry point of the simulator makes cyclic garbage.

The entry points run with the cyclic collector paused
(:func:`repro.common.gcpause.gc_paused`), which is only free if
reference counting alone frees everything they drop. This is the
invariant that justifies the pause, pinned per entry point: each
registry entry runs one of them with the collector off and
``gc.collect()`` must find nothing — while what it returned is alive,
and again once that is dropped too. A count here names a reference cycle
(``gc.set_debug(gc.DEBUG_SAVEALL)`` and ``gc.garbage`` say which).
"""

from __future__ import annotations

import gc
import weakref
from array import array
from typing import Callable, Dict

import pytest

from repro.apps import APPS, generate
from repro.common.errors import ConfigError, SimulatorError
from repro.common.gcpause import gc_paused
from repro.config import SimConfig
from repro.hb.skeleton import batch_plan
from repro.network.link import LinkModel
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import ColumnarSink, JsonlSink
from repro.obs.spans import SpanCosts, SpanProbe, timeline_from_records
from repro.simulator.engine import Engine, simulate
from repro.simulator.sweep import run_sweep
from repro.trace import load_trace, save_trace
from repro.trace.precompile import compile_trace
from tests.conftest import SMALL_SCALE, kept_parts, small_trace
from tests.reference_oracle import ReferenceEngine

#: name -> entry. An entry takes a scratch directory, runs one entry
#: point and returns whatever should outlive the first collection.
ENTRIES: Dict[str, Callable] = {}


def entry(fn: Callable) -> Callable:
    ENTRIES[fn.__name__] = fn
    return fn


for _app in APPS:
    ENTRIES[f"generate_{_app}"] = lambda tmp, app=_app: generate(
        app, n_procs=4, seed=1, **SMALL_SCALE[app]
    )


@entry
def save_and_load_trace(tmp):
    path = str(tmp / "water.trcb")
    save_trace(small_trace("water"), path)
    return load_trace(path)


@entry
def compile_a_trace(tmp):
    trace = small_trace("locusroute")
    return trace, compile_trace(trace, 1024)


@entry
def sweep_plain(tmp):
    trace = small_trace("water")
    return trace, run_sweep(trace, protocols=["LI", "HLRC", "EI", "EW"], page_sizes=[512, 2048])


@entry
def sweep_metrics(tmp):
    trace = small_trace("mp3d")
    return trace, run_sweep(trace, page_sizes=[1024], metrics=True)


@entry
def sweep_spans(tmp):
    trace = small_trace("water")
    return trace, run_sweep(trace, page_sizes=[1024], spans=True)


@entry
def timed_cell_recording_then_reuse(tmp):
    trace = small_trace("water")
    link = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3)
    runs = [
        simulate(trace, protocol, page_size=1024, link_model=link)
        for protocol in ("LU", "EI") * 3
    ]
    logs = [r.manifest.get("record", {}).get("log") for r in runs]
    assert logs == [None] * 2 + ["recorded"] * 2 + ["reused"] * 2
    return trace, runs


@entry
def closed_sink_runs(tmp):
    trace = small_trace("pthor")
    results = []
    for protocol, sink in (("LH", ColumnarSink()), ("EU", JsonlSink(str(tmp / "events.jsonl")))):
        probe = RecordingProbe(sinks=[sink])
        results.append(simulate(trace, protocol, page_size=1024, probe=probe))
        probe.close()
    return trace, results


@entry
def observed_cell_recorded_then_reused(tmp):
    """One observed cell cold, again (recording its stream), then warm,
    under a sink and under a span probe — each family. The kept stream
    is columns only: it references neither a probe nor the plan that
    keeps it."""
    trace = small_trace("water")
    results = []
    for protocol in ("LU", "EU"):
        for make_probe in (lambda: RecordingProbe(sinks=[ColumnarSink()]), SpanProbe) * 2:
            probe = make_probe()
            results.append(simulate(trace, protocol, page_size=1024, probe=probe))
            probe.close()
    sources = [result.manifest.get("record", {}).get("stream") for result in results]
    assert sources == [None, "recorded", "reused", "reused"] * 2
    plan = batch_plan(trace.compiled(1024), trace.n_procs)
    for stream in kept_parts(plan, "stream"):
        held = [ref for ref in gc.get_referents(stream) if not isinstance(ref, type)]
        assert held and all(isinstance(ref, array) for ref in held)
    return trace, results, probe


def span_timeline(protocol: str, costs=None, link=None):
    """A span-probed run of one water cell, and the timeline built from
    its record stream: weighted by ``costs``, or by the measured delay
    log of a run timed over ``link``."""
    trace = small_trace("water")
    probe = SpanProbe()
    simulate(trace, protocol, page_size=1024, probe=probe, link_model=link)
    probe.close()
    delays = probe.link_delays if link is not None else None
    timeline = timeline_from_records(
        probe.records, trace.compiled(1024), trace.n_procs, costs, delays=delays
    )
    assert timeline.spans
    return trace, probe, timeline


@entry
def timeline_from_records_synthetic_costs(tmp):
    return span_timeline("LU", costs=SpanCosts.modern_cluster())


@entry
def timeline_from_records_delay_log(tmp):
    return span_timeline("EW", link=LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3))


def assert_plain_data(tape) -> None:
    """Nothing reachable from a kept priced tape is a protocol, a plan or
    anything else with behaviour."""
    plain = (tuple, list, dict, int, str, type(None))
    reachable, todo = set(), [tape.epochs, tape.counters]
    while todo:
        obj = todo.pop()
        if id(obj) not in reachable:
            reachable.add(id(obj))
            assert isinstance(obj, plain), type(obj)
            todo += gc.get_referents(obj)


@entry
def lazy_cell_recorded_then_folded(tmp):
    """A lazy cell run cold, again (its kernels recording its priced
    tape), then folding that tape — with no probe, and another cell
    under a metrics probe — beside an eager cell, which prices its
    policy's tape and folds it. Every kept tape is plain data."""
    trace = small_trace("water")
    results = []
    cells = (("LU", 1024, None), ("HLRC", 2048, RecordingProbe), ("EU", 1024, None))
    for protocol, page_size, make_probe in cells:
        for _ in range(3):
            probe = make_probe() if make_probe else None
            results.append(simulate(trace, protocol, page_size=page_size, probe=probe))
            if probe is not None:
                probe.close()
    sources = [result.manifest.get("record", {}).get("priced") for result in results]
    assert sources == [None, "recorded", "reused"] * 2 + ["recorded", "reused", "reused"]
    plans = [batch_plan(trace.compiled(page_size), trace.n_procs) for page_size in (1024, 2048)]
    tapes = [
        tape for plan in plans for tape in (*kept_parts(plan, "priced"), *plan._priced_tapes.values())
    ]
    assert len(tapes) == 3
    for tape in tapes:
        assert_plain_data(tape)
    return trace, results


@entry
def warm_folded_cells(tmp):
    """Each family's cell run until it folds its priced tape — the run
    that binds no table — kept with its engine and protocol."""
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    engines = []
    for protocol in ("LI", "EU"):
        for _ in range(3):
            engine = Engine(trace, config, protocol)
            engine.run()
            engines.append(engine)
    assert [e._record_parts.get("priced") for e in engines[2::3]] == ["reused", "reused"]
    return trace, engines


@entry
def cold_lazy_tape_cell(tmp):
    """A lazy cell's first tape run: its kernels' tables are built at
    bind time over the plan's store and planner, and the engine that
    holds them is kept alive with the trace."""
    trace = small_trace("water")
    engine = Engine(trace, SimConfig(n_procs=trace.n_procs, page_size=1024), "LH")
    result = engine.run()
    assert result.manifest["execution_path"] == "tape" and engine.protocol.procs
    return trace, engine


@entry
def record_values_runs(tmp):
    trace = small_trace("cholesky")
    return trace, [simulate(trace, protocol, record_values=True) for protocol in ("LI", "EW")]


@entry
def reference_runs(tmp):
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    return trace, [
        ReferenceEngine(trace, config, protocol).run()
        for protocol in ("LI", "LU", "LH", "HLRC", "EI")
    ]


@entry
def dropped_trace_after_a_sweep(tmp):
    trace = small_trace("water")
    run_sweep(trace, protocols=["LI", "EI"], page_sizes=[1024, 4096])
    del trace


_ALL_ENTRIES = list(ENTRIES.items())


@pytest.mark.parametrize(
    ("name", "run"), _ALL_ENTRIES, ids=[name for name, _ in _ALL_ENTRIES]
)
def test_entry_point_leaves_no_cyclic_garbage(name, run, tmp_path):
    gc.collect()
    gc.disable()
    try:
        kept = run(tmp_path)
        while_alive = gc.collect()
        del kept
        once_dropped = gc.collect()
    finally:
        gc.enable()
    assert (while_alive, once_dropped) == (0, 0), f"{name} left unreachable objects"


def test_dropped_trace_frees_its_plans_by_reference_counting():
    """``BatchPlan`` keeps the ops, not the ``CompiledTrace`` that
    memoizes it, so trace -> compiled -> plan is a chain, not a cycle:
    the interval store goes with the trace, collector off."""
    gc.collect()
    gc.disable()
    try:
        trace = small_trace("water")
        run_sweep(trace, protocols=["LI", "EI"], page_sizes=[1024])
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        store_ref = weakref.ref(plan.skeleton.store)
        del plan, trace
        assert store_ref() is None
    finally:
        gc.enable()


class TestGcPaused:
    """The pause restores the collector's prior state, whatever it was."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_enabled_comes_back_enabled(self):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_end_with_the_outermost(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restored_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_decorated_function_keeps_its_identity_and_state(self):
        @gc_paused()
        def probe_state(value):
            """doc"""
            return value, gc.isenabled()

        assert probe_state(3) == (3, False)
        assert probe_state.__name__ == "probe_state" and probe_state.__doc__ == "doc"
        assert gc.isenabled()

    @pytest.mark.parametrize("was_enabled", [True, False], ids=["enabled", "disabled"])
    def test_public_entry_points_restore_the_state_they_found(self, was_enabled):
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)
        if not was_enabled:
            gc.disable()
        run_sweep(trace, protocols=["LI", "EI"], page_sizes=[1024])
        assert gc.isenabled() == was_enabled
        Engine(trace, config, "LI").run()
        assert gc.isenabled() == was_enabled
        ReferenceEngine(trace, config, "LU").run()
        assert gc.isenabled() == was_enabled
        # ...including when the call raises: a second run() is refused.
        engine = Engine(trace, config, "EI")
        engine.run()
        with pytest.raises(SimulatorError):
            engine.run()
        assert gc.isenabled() == was_enabled
        with pytest.raises(ConfigError):
            run_sweep(trace, protocols=["no-such-protocol"], page_sizes=[1024])
        assert gc.isenabled() == was_enabled
