"""A cell's record stream: written once, kept in the cell's record, read
by every later observer — and the event schema it is written in.

A tape run under a sink or a span probe writes everything such an
observer receives into a :class:`~repro.obs.spans.SpanRecords` (a sink's
first run of a cell writes to its probe directly instead). Under the one
rule of a cell's :class:`~repro.hb.skeleton.CellRecord` the engine keeps
it when the cell was run before, and every later observed run replays
metrics-only and reads the kept stream. These tests pin the schema table
against the documentation and every emission site, the provenance
(manifest, ``plan_stats``), the storage (typed columns), and — as one
property over random race-free traces, seven protocols and every option
that can change a stream — that the record key is sound and the rule is
the one stated: a reused stream or send log, and a lazy cell's folded
priced tape, is always the one a fresh run would make.
"""

from __future__ import annotations

import re
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SimConfig
from repro.hb.skeleton import batch_plan, plan_stats
from repro.network.costs import CostModel
from repro.network.link import LinkModel
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import EVENT_SCHEMA, ColumnarSink, MemorySink
from repro.obs.spans import SpanProbe, timeline_from_records
from repro.protocols.registry import all_protocol_names, protocol_class
from repro.simulator.engine import Engine, simulate
from tests.conftest import kept_parts, small_trace, timeline_fields
from tests.test_protocol_properties import interleave, race_free_programs

DOCS = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def documented_schema():
    """The "Event schema" table of docs/OBSERVABILITY.md, as
    ``(kind, fields)`` rows in table order."""
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Event schema", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), tuple(re.findall(r"`(\w+)`", cells[2]))))
    return rows


def test_schema_table_is_the_documented_one():
    assert documented_schema() == list(EVENT_SCHEMA)


class EmitWatcher(RecordingProbe):
    """Overrides ``emit`` (so it is interpreted) and keeps each event's
    kind and field names in the order its site passed them."""

    def __init__(self):
        super().__init__(sinks=[MemorySink()])
        self.shapes = set()

    def emit(self, kind, proc=-1, **fields):
        self.shapes.add((kind, tuple(fields)))
        super().emit(kind, proc, **fields)


@pytest.mark.parametrize("protocol", all_protocol_names())
def test_every_emission_site_passes_its_fields_in_schema_order(protocol):
    """Events are stored positionally, so a site passing its fields in
    another order would relabel them: every shape an interpreted run
    emits — with barrier GC on, so ``gc_sweep`` is among them — is a
    schema row."""
    trace = small_trace("water")
    probe = EmitWatcher()
    result = simulate(trace, protocol, page_size=1024, probe=probe, gc_at_barriers=True)
    assert result.manifest["decline_reason"] == "subclassed_probe"
    assert probe.shapes and probe.shapes <= set(EVENT_SCHEMA)


def test_absent_fields_stay_absent():
    """A barrier exit's ``notices_send`` carries no ``bytes`` (not a 0),
    and ``gc_sweep`` has no acting processor (``proc`` -1) — read back
    from a kept stream as from the interpreter."""
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024, gc_at_barriers=True)
    views = []
    for options in ({}, {}, {"record_values": True}):
        sink = MemorySink()
        Engine(trace, config.with_options(**options), "LU", probe=RecordingProbe([sink])).run()
        views.append(sink.events)
    assert views[0] == views[1] == views[2]
    sends = [e for e in views[0] if e["kind"] == "notices_send"]
    assert any("bytes" not in e for e in sends) and any("bytes" in e for e in sends)
    sweeps = [e for e in views[0] if e["kind"] == "gc_sweep"]
    assert sweeps and all(e["proc"] == -1 for e in sweeps)


def record_run(trace, config, protocol, probe=None, **options):
    """One run's ``record`` manifest and the record / priced-tape
    counters it moved."""
    before = plan_stats()
    result = Engine(trace, config.with_options(**options), protocol, probe=probe).run()
    after = plan_stats()
    delta = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    assert all(k.startswith(("plan_", "priced_tape_", "record_")) for k in delta), delta
    return result.manifest.get("record", {}), {
        k: v for k, v in delta.items() if not k.startswith("plan_")
    }


def test_manifest_and_plan_stats_name_the_stream():
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)

    def run(probe, **options):
        return record_run(trace, config, "LI", probe, **options)

    # A cell's first observed run keeps nothing: a sink is written to
    # directly, a span probe gets the stream the run writes.
    assert run(RecordingProbe([ColumnarSink()]), gc_at_barriers=True) == ({}, {})
    assert run(SpanProbe(), piggyback_notices=False) == ({}, {})
    # Nothing that takes events writes no stream; the bare run notes the
    # cell, so the metrics-only run after it keeps its priced tape...
    assert run(None) == ({}, {})
    assert run(RecordingProbe()) == ({"priced": "recorded"}, {"record_builds": 1})
    # ...and the first observer of a cell run before keeps the stream it
    # writes; from then on every observer reads it and folds.
    assert run(RecordingProbe([ColumnarSink()])) == ({"stream": "recorded"}, {"record_builds": 1})
    assert run(SpanProbe()) == ({"stream": "reused", "priced": "reused"}, {"record_hits": 2})
    # A link changes no event: a timed cell reads the same stream (and
    # keeps the send log it writes).
    assert run(SpanProbe(), link_model=LinkModel.ideal()) == (
        {"stream": "reused", "log": "recorded"},
        {"record_hits": 1, "record_builds": 1},
    )
    # The interpreter writes through the hooks and keeps nothing.
    assert run(SpanProbe(), record_values=True) == ({}, {})


def test_manifest_and_plan_stats_name_the_priced_tape():
    """A lazy cell's pricing is one part of its record; the eager
    policies' priced tapes are counted apart, and a run that folds one
    reports it under the same ``priced`` part. The kernels replay the plan's
    skeleton, which no cost key resolves: no lazy-tape counter exists,
    nor one per record part."""
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    assert not [k for k in plan_stats() if k.startswith(("lazy_tape", "send_log", "obs_stream"))]

    def run(protocol="LU", probe=None, **options):
        return record_run(trace, config, protocol, probe, **options)

    # The first tape run runs the kernels and keeps nothing; the second
    # records the cell's priced tape; every later one that writes
    # nothing folds it.
    assert run() == ({}, {})
    assert run() == ({"priced": "recorded"}, {"record_builds": 1})
    assert run() == ({"priced": "reused"}, {"record_hits": 1})
    assert run(probe=RecordingProbe()) == ({"priced": "reused"}, {"record_hits": 1})
    # A run writing events or a send log runs the kernels; once the send
    # log is kept, a timed run folds too.
    assert run(probe=RecordingProbe([ColumnarSink()])) == (
        {"stream": "recorded"}, {"record_builds": 1}
    )
    assert run(link_model=LinkModel.ideal()) == ({"log": "recorded"}, {"record_builds": 1})
    assert run(link_model=LinkModel.ideal()) == (
        {"log": "reused", "priced": "reused"}, {"record_hits": 2}
    )
    # The interpreter prices nothing. An eager run that writes nothing
    # prices its policy's tape at its cost key once, and every such run
    # folds it; one writing events walks the steps and touches no tape.
    assert run(record_values=True) == ({}, {})
    assert run("EU") == ({"priced": "recorded"}, {"priced_tape_builds": 1})
    assert run("EU", probe=RecordingProbe([ColumnarSink()])) == ({}, {})
    assert run("EU", probe=RecordingProbe([ColumnarSink()])) == (
        {"stream": "recorded"}, {"record_builds": 1}
    )
    assert run("EU", probe=RecordingProbe([ColumnarSink()])) == (
        {"stream": "reused", "priced": "reused"}, {"record_hits": 1, "priced_tape_hits": 1}
    )


def test_kept_stream_is_typed_columns():
    trace = small_trace("pthor")
    plan = batch_plan(trace.compiled(1024), trace.n_procs)
    probe = SpanProbe()
    simulate(trace, "EU", page_size=1024, probe=probe)
    assert not kept_parts(plan, "stream") and isinstance(probe.records.codes, list)
    probe = SpanProbe()
    simulate(trace, "EU", page_size=1024, probe=probe)
    (stream,) = kept_parts(plan, "stream")
    assert probe.records is stream and len(stream) > 0
    columns = [getattr(stream, name) for name in type(stream).__slots__]
    assert all(isinstance(column, array) for column in columns)


def test_a_probe_viewing_a_kept_stream_never_writes_it():
    """A span probe that read a kept stream and then observes another
    run — on the interpreter, or on the tape again — writes a copy: the
    kept stream stays what the next observer of the cell gets."""
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    for _ in range(2):
        Engine(trace, config, "LU", probe=SpanProbe()).run()
    probe = SpanProbe()
    assert Engine(trace, config, "LU", probe=probe).run().manifest["record"]["stream"] == "reused"
    (stream,) = kept_parts(batch_plan(trace.compiled(1024), trace.n_procs), "stream")
    kept = list(stream)
    assert probe.records is stream
    Engine(trace, config.with_options(record_values=True), "LU", probe=probe).run()
    Engine(trace, config, "LU", probe=probe).run()
    assert list(stream) == kept
    assert probe.records is not stream and list(probe.records) == kept * 3
    fresh = SpanProbe()
    Engine(trace, config, "LU", probe=fresh).run()
    assert fresh.records is stream
    # Two runs of one probe, both set up before either runs.
    shared = SpanProbe()
    first, second = [Engine(trace, config, "LU", probe=shared) for _ in range(2)]
    first.run()
    second.run()
    assert list(stream) == kept and list(shared.records) == kept * 2


@pytest.mark.parametrize("protocol", ["LU", "EU"])
@pytest.mark.parametrize("observed_before", [True, False], ids=["recording", "first_span"])
def test_a_run_writing_a_stream_that_raises_hands_over_what_it_wrote(
    protocol, observed_before, monkeypatch
):
    """A run writing a record stream dies partway — the one recording a
    cell's stream, or a span probe's first run of the cell: its sinks get
    every event written before the raise, and the plan keeps nothing."""
    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    whole = MemorySink()
    interpreted = config.with_options(record_values=True)  # leaves the memo alone
    Engine(trace, interpreted, protocol, probe=RecordingProbe([whole])).run()
    if observed_before:
        Engine(trace, config, protocol, probe=RecordingProbe([MemorySink()])).run()
    from repro.obs.spans import SpanRecords

    real_emit, budget = SpanRecords.emit, len(whole.events) // 2
    written = []

    def dying_emit(self, kind, proc=-1, **fields):
        if len(written) == budget:
            raise RuntimeError("replay died")
        written.append(kind)
        real_emit(self, kind, proc, **fields)

    monkeypatch.setattr(SpanRecords, "emit", dying_emit)
    sink = MemorySink()
    probe = RecordingProbe([sink]) if observed_before else SpanProbe([sink])
    engine = Engine(trace, config, protocol, probe=probe)
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine._execution_path == "tape"
    assert engine._record_parts.get("stream") == ("recorded" if observed_before else None)
    assert sink.events == whole.events[:budget]
    assert not kept_parts(batch_plan(trace.compiled(1024), trace.n_procs), "stream")


#: The run options a record stream or a send log can depend on, each
#: with the value it is flipped to from the default config.
FLIPS = {
    "cost_model": CostModel(
        count_acks=False, count_header_in_data=True, count_control_in_data=True
    ),
    "piggyback_notices": False,
    "free_local_lock_reacquire": False,
    "gc_at_barriers": True,
    "skip_overwritten_diffs": False,
    "diff_to_invalid_copy": False,
}
#: Observers of a run: none, a metrics-only probe, a sink, and a span
#: probe timed over a lossy link (a cell's send log is kept on the plan
#: too). The first two write nothing, so a lazy cell folds under them
#: once its priced tape is kept.
OBSERVERS = ("bare", "metrics", "sink", "timed_spans")
#: The observers that take events, hence read or write a record stream.
STREAMED = ("sink", "timed_spans")
LOSSY = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3, jitter_s=5e-5)


def observe_cell(trace, protocol, config, observer):
    """``(result body, what the observer got, timeline or None)`` of one
    run — the body holds the ledger, the counters, the metrics snapshot
    and the timing report — and its manifest."""
    timeline = got = None
    if observer == "timed_spans":
        probe, config = SpanProbe(), config.with_options(link_model=LOSSY)
    elif observer == "sink":
        probe = RecordingProbe([MemorySink()])
    else:
        probe = RecordingProbe() if observer == "metrics" else None
    result = Engine(trace, config, protocol, probe=probe).run()
    body = result.to_dict()
    body.pop("manifest")
    if observer == "sink":
        got = probe.sinks[0].events
    elif observer == "timed_spans":
        got = probe.records
        timeline = timeline_fields(
            timeline_from_records(
                probe.records, trace.compiled(config.page_size), config.n_procs,
                delays=probe.link_delays,
            )
        )
    return (body, got, timeline), result.manifest


def one_rule(kept, lazy: bool, observer: str):
    """The rule of a cell's record, as a model: ``(kept', record,
    writes)`` for one tape run under ``observer`` — ``kept``, the parts
    the cell's runs have kept, None before the first run that notes the
    cell; ``record``, what the run's ``record`` manifest must say of its
    cell's parts; ``writes``, whether the run writes an event, stream or
    send log. A run keeps a part it writes only when the cell was run
    before; it reads a kept one instead; a lazy cell's run that writes
    nothing folds its kept priced tape (an eager one, its policy's)."""
    needs = {"stream": observer in STREAMED, "log": observer == "timed_spans"}
    if not (lazy or any(needs.values())):
        return kept, {}, False  # an eager bare fold notes nothing
    if kept is None:
        return set(), {}, any(needs.values())
    record = {
        part: "reused" if part in kept else "recorded" for part, needed in needs.items() if needed
    }
    writes = "recorded" in record.values()
    if lazy and "priced" not in kept:
        record["priced"] = "recorded"
    elif lazy and not writes:
        record["priced"] = "reused"
    return kept | {part for part, source in record.items() if source == "recorded"}, record, writes


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.permutations(
        [
            (protocol, flip, observer)
            for protocol in all_protocol_names()
            for flip in (None, *FLIPS)
            for observer in OBSERVERS
        ]
        * 2
    ),
)
def test_reused_records_are_what_a_fresh_run_makes(program, order):
    """Every protocol under the default config and each one-option flip
    of it, each under every observer twice, in a random order on one
    trace (one plan): every run — the one that records the cell's
    stream, send log or priced tape and every one that reads or folds
    them — gets what the interpreter makes fresh: the result body and
    metrics snapshot, sink events and span records record for record,
    the timing report and the timeline exactly. A reused run's timeline
    is the first one's, and every run's ``record`` manifest is what
    :func:`one_rule` says. (Normalizing any one of these options out of
    the record key fails this property.)"""
    trace = interleave(*program)
    base = SimConfig(n_procs=trace.n_procs, page_size=64)
    fresh, first, kept, eager_priced = {}, {}, {}, set()
    for cell in order:
        protocol, flip, observer = cell
        config = base if flip is None else base.with_options(**{flip: FLIPS[flip]})
        seen, manifest = observe_cell(trace, protocol, config, observer)
        assert manifest["execution_path"] == "tape"
        lazy = protocol_class(protocol).lazy
        kept[protocol, flip], expected, writes = one_rule(
            kept.get((protocol, flip)), lazy, observer
        )
        if not (lazy or writes):
            # Every eager run that writes nothing folds its policy's
            # tape, priced by the first such run at its cost key.
            cost_key = (protocol, config.cost_model, config.free_local_lock_reacquire)
            expected["priced"] = "reused" if cost_key in eager_priced else "recorded"
            eager_priced.add(cost_key)
        assert manifest.get("record", {}) == expected, cell
        if cell not in fresh:
            fresh[cell], interpreted = observe_cell(
                trace, protocol, config.with_options(record_values=True), observer
            )
            assert interpreted["execution_path"] == "per_event"
        # (Compared first: a failing example names its cell, not a diff
        # of two event streams.)
        same = seen == fresh[cell]
        assert same, cell
        if expected.get("stream") == "reused":
            same = seen[2] == first.setdefault(cell, seen[2])
            assert same, cell
