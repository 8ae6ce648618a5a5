"""Shared fixtures: small app traces and helper builders."""

from __future__ import annotations

import pytest

from repro.apps import cholesky, locusroute, mp3d, pthor, water
from repro.config import SimConfig
from repro.hb.skeleton import CellRecord, batch_plan
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import MemorySink
from repro.obs.spans import SpanProbe, timeline_from_records
from repro.protocols.registry import protocol_class
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.trace.events import Event
from repro.trace.stream import TraceMeta, TraceStream
from tests.reference_oracle import ReferenceEngine

#: Small-scale parameters per app so whole-suite runs stay fast.
SMALL_SCALE = {
    "locusroute": dict(grid_width=32, grid_height=8, n_wires=16, n_regions=4),
    "cholesky": dict(n_columns=24, column_words=16, fill_degree=3),
    "mp3d": dict(n_particles=48, n_cells=24, n_cell_locks=4, timesteps=2),
    "water": dict(n_molecules=24, timesteps=2, cutoff=0.4),
    "pthor": dict(n_elements=24, windows=2, activations_per_window=3),
}

_GENERATORS = {
    "locusroute": locusroute.generate,
    "cholesky": cholesky.generate,
    "mp3d": mp3d.generate,
    "water": water.generate,
    "pthor": pthor.generate,
}


def small_trace(app: str, n_procs: int = 4, seed: int = 1) -> TraceStream:
    """A small but structurally faithful trace of one app."""
    return _GENERATORS[app](n_procs=n_procs, seed=seed, **SMALL_SCALE[app])


@pytest.fixture(scope="session", params=sorted(_GENERATORS))
def app_trace(request) -> TraceStream:
    """One small trace per application (parametrized)."""
    return small_trace(request.param)


@pytest.fixture(scope="session")
def locusroute_trace() -> TraceStream:
    return small_trace("locusroute")


@pytest.fixture(scope="session")
def water_trace() -> TraceStream:
    return small_trace("water")


def build_trace(n_procs: int, events) -> TraceStream:
    """A hand-written trace from an event list."""
    trace = TraceStream(TraceMeta(n_procs=n_procs, app="hand"))
    for event in events:
        trace.append(event)
    return trace


def lock_chain_trace(n_procs: int = 3, rounds: int = 2, addr: int = 0x100) -> TraceStream:
    """The Figure 3/4 pattern as a raw event list."""
    events = []
    for _ in range(rounds):
        for proc in range(n_procs):
            events += [
                Event.acquire(proc, 0),
                Event.read(proc, addr),
                Event.write(proc, addr),
                Event.release(proc, 0),
            ]
    return build_trace(n_procs, events)


def straddling_trace(barrier: bool = True) -> TraceStream:
    """Accesses across one and several 512-byte pages, two processors."""
    events = [Event.acquire(0, 0), Event.write(0, 500, 1050), Event.release(0, 0)]
    events += [Event.acquire(1, 0), Event.read(1, 508, 8), Event.write(1, 1020, 8)]
    events += [Event.release(1, 0)] + [Event.at_barrier(p, 0) for p in (0, 1) if barrier]
    events += [Event.acquire(0, 0), Event.read(0, 500, 1050), Event.release(0, 0)]
    return build_trace(2, events)


def ledger_fields(result: SimulationResult) -> dict:
    """Every accounting field of one result: all but read values and manifest."""
    return {
        "messages": result.messages,
        "data_bytes": result.data_bytes,
        "control_bytes": result.control_bytes,
        "cold_misses": result.cold_misses,
        "invalid_misses": result.invalid_misses,
        "diffs_fetched": result.diffs_fetched,
        "diff_bytes_fetched": result.diff_bytes_fetched,
        "counters": result.counters,
        "by_kind": result.stats.snapshot(),
    }


def timeline_fields(timeline) -> dict:
    """Everything a built span timeline holds, as plain comparable values."""
    return {
        "spans": [
            (s.proc, s.kind, s.start, s.end, s.pred, s.buckets, s.label, s.args)
            for s in timeline.spans
        ],
        "flows": timeline.flows,
        "epoch_rows": timeline.epoch_rows,
        "barrier_imbalance_s": timeline.barrier_imbalance_s,
    }


def path_and_reason(result: SimulationResult):
    """``(execution_path, decline_reason)`` as the run's manifest has
    them — the pair ``certify_replay`` answers (reason None on the tape
    and the oracle)."""
    manifest = result.manifest
    return manifest["execution_path"], manifest.get("decline_reason")


def interpreter_engine(trace, protocol, config=None, probe=None, **options) -> Engine:
    """An engine whose ``run()`` is the per-event interpreter for this cell.

    No option selects a loop; values exist only on the interpreter, so a
    run that records them is one — the only loop that keeps page tables,
    copysets and contents for a white-box test to inspect afterwards.
    """
    if config is None:
        config = SimConfig(n_procs=trace.n_procs)
    config = config.with_options(**{**options, "record_values": True})
    return Engine(trace, config, protocol, probe=probe)


def interpreter_result(trace, protocol, config=None, probe=None, **options) -> SimulationResult:
    """The interpreter's result for this cell (see :func:`interpreter_engine`).

    Compare with :func:`ledger_fields`, ``result.metrics`` or
    ``to_dict()`` minus its manifest — everything but ``read_values``
    matches what the tape replay reports.
    """
    result = interpreter_engine(trace, protocol, config, probe, **options).run()
    assert result.manifest["execution_path"] == "per_event"
    return result


class MessageLogProbe(RecordingProbe):
    """The way to watch individual messages: a probe that overrides
    ``on_message``. It keeps what the hook is told about each message —
    ``(kind, src, dst, data_bytes, control_bytes, counted)``, in send
    order — and then does what the stock hook does, so metrics stay
    exact. Overriding a hook the tape bypasses, it is interpreted
    (``subclassed_probe``)."""

    def __init__(self, sinks=None, metrics=None):
        super().__init__(sinks=sinks, metrics=metrics)
        self.log = []

    def on_message(self, kind, src, dst, data_bytes, control_bytes, counted):
        self.log.append((kind, src, dst, data_bytes, control_bytes, counted))
        super().on_message(kind, src, dst, data_bytes, control_bytes, counted)


class SpanMessageLogProbe(MessageLogProbe, SpanProbe):
    """The same watcher on top of the other stock class."""


#: Every way ``Engine`` can run one cell, as data: loop -> (config
#: overrides, the ``(execution_path, decline_reason)`` its manifest must
#: then show). Nothing selects a loop; each row asks for what needs it.
LOOPS = {
    "tape": ({}, ("tape", None)),
    # A probe that watches every message — the run's own probe class
    # swapped for its message-logging subclass, nothing else changed.
    "watched": ({}, ("per_event", "subclassed_probe")),
    # The interpreter with no probe at all: a bare subclass of the
    # protocol has not vouched for the tape.
    "alias": ({}, ("per_event", "uncertified_class")),
    # Values exist only on the interpreter; recording them asks for it.
    "per_event": ({"record_values": True}, ("per_event", "record_values")),
    # The test oracle, asked for by class: ``ReferenceEngine`` in
    # ``tests/reference_oracle.py`` (its scans, store and raw-event loop).
    "reference": ({}, ("reference", None)),
    # The tape once the cell has run before: a lazy cell's kernels record
    # its priced tape, and a sink or span probe gets the record stream
    # this run writes — both kept in the cell's record...
    "recorded": ({}, ("tape", None)),
    # ...then a sink or span probe reads that kept stream (run_loop
    # primes the cell so, and checks the manifest says so)...
    "reused": ({}, ("tape", None)),
    # ...and, reading it, a lazy cell folds its kept priced tape.
    "folded": ({}, ("tape", None)),
}
#: The loops of a probed cell / of a probe-less one.
PROBED_LOOPS = ("tape", "watched", "per_event", "reference", "recorded", "reused", "folded")
BARE_LOOPS = ("tape", "alias", "per_event", "reference", "recorded", "reused", "folded")
_WATCHER_OF = {RecordingProbe: MessageLogProbe, SpanProbe: SpanMessageLogProbe}


def kept_parts(plan, part: str) -> list:
    """Every ``part`` (``priced``, ``log`` or ``stream``) the cell records
    of ``plan`` keep."""
    return [
        getattr(record, part)
        for record in plan._records.values()
        if getattr(record, part) is not None
    ]


def run_loop(trace, protocol, config, loop, make_probe=None, sink=None):
    """One run of the cell on ``loop``: ``(engine, probe, result)``, the
    manifest checked against the loop's row of :data:`LOOPS`."""
    overrides, expected = LOOPS[loop]
    if loop == "alias":
        protocol = type("Alias", (protocol_class(protocol),), {})
    if loop == "watched":
        make_probe = _WATCHER_OF.get(make_probe, make_probe)
    probe = make_probe(sinks=[sink] if sink is not None else None) if make_probe else None
    memo = loop in ("recorded", "reused", "folded")
    observed = memo and probe is not None and probe.events
    lazy = memo and protocol_class(protocol).lazy
    if observed or lazy:
        plan = batch_plan(trace.compiled(config.page_size), config.n_procs)
        key = (protocol_class(protocol), config.with_options(link_model=None))
        records = plan._records
        if loop == "recorded" and key in records:
            # An identical cell seen before (one plan per trace) may have
            # kept parts of its record: drop them, so this run records afresh.
            records[key] = CellRecord()

        def primed() -> bool:
            """Whether this run is now the one asked for."""
            record = records.get(key)
            if record is None or loop == "recorded":
                return record is not None
            return (not observed or record.stream is not None) and (
                loop == "reused" or not lazy or record.priced is not None
            )

        # Run the cell beforehand until it is.
        while not primed():
            first = make_probe(sinks=[type(sink)()] if sink is not None else None) if observed else None
            Engine(trace, config, protocol, probe=first).run()
            if first is not None:
                first.close()
    eager_kept = None
    if expected[0] == "tape" and not protocol_class(protocol).lazy:
        plan = batch_plan(trace.compiled(config.page_size), config.n_procs)
        name = protocol_class(protocol).name
        cost_key = (name, config.cost_model, config.free_local_lock_reacquire)
        eager_kept = cost_key in plan._priced_tapes
    engine_class = ReferenceEngine if loop == "reference" else Engine
    engine = engine_class(trace, config.with_options(**overrides), protocol, probe=probe)
    result = engine.run()
    assert path_and_reason(result) == expected
    record = result.manifest.get("record", {})
    if memo:
        stream = "recorded" if loop == "recorded" else "reused"
        assert record.get("stream") == (stream if observed else None)
    if eager_kept is not None:
        ran = engine.protocol
        if ran._obs_events or ran._tap is not None:
            # A run writing events or messages walks the steps once, and
            # neither reads nor keeps its policy's priced tape.
            assert "priced" not in record
            assert (cost_key in plan._priced_tapes) == eager_kept
        else:
            # Every other folds it, priced first if none is kept.
            assert record.get("priced") == ("reused" if eager_kept else "recorded")
    elif loop in ("recorded", "folded"):
        priced = "recorded" if loop == "recorded" else "reused"
        assert record.get("priced") == (priced if lazy else None)
    return engine, probe, result


def observe(trace, protocol, config, loop, make_probe=RecordingProbe, sink=None) -> dict:
    """Everything one run on ``loop`` can show, as plain comparable
    values: the result, ledger and counters; under a probe its metrics
    and the order its staged rows were created in; with ``sink``
    attached the event stream (``seq`` and ``epoch`` included); under a
    ``SpanProbe`` the record stream and the timeline built from it."""
    engine, probe, result = run_loop(trace, protocol, config, loop, make_probe, sink)
    body = result.to_dict()
    body.pop("manifest")
    view = {"body": body, "fields": ledger_fields(result), "metrics": result.metrics}
    if probe is None:
        return view
    # The per-id row caches are the tape kernels' (hooks open windows
    # through begin()): views of the same staged rows, empty off the tape.
    for kind, rows in (("lock", probe._lock_rows), ("barrier", probe._barrier_rows)):
        assert all(row is probe._segments[kind, ident] for ident, row in rows.items())
        assert loop in ("tape", "recorded", "reused", "folded") or not rows
    if isinstance(probe, MessageLogProbe):
        # It was told of every message, local hops excluded.
        assert sum(message[5] for message in probe.log) == result.messages
    records = getattr(probe, "records", None)
    compiled = engine._compiled or trace.compiled(config.page_size)
    view.update(
        # Creation order of the staged rows and of the registry's tables.
        segments=list(probe._segments),
        registry_locks=list(probe.metrics._locks),
        registry_epochs=probe.metrics._epochs,
        events=sink.events if sink is not None else None,
        records=records,
        timeline=records
        and timeline_fields(timeline_from_records(records, compiled, config.n_procs)),
    )
    return view


def assert_loops_agree(
    trace, protocol, config, loops=PROBED_LOOPS, make_probe=RecordingProbe, sink=MemorySink
) -> dict:
    """The one comparator: :func:`observe` the cell on each of ``loops``
    (a fresh ``sink()`` per run, none if None) and assert every view
    equals the first loop's, which is returned."""
    views = {
        loop: observe(
            trace, protocol, config, loop, make_probe, sink() if sink and make_probe else None
        )
        for loop in loops
    }
    first = views[loops[0]]
    for loop, view in views.items():
        assert view == first, (protocol, loop)
    return first
