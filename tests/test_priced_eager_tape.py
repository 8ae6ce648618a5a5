"""The priced tape: every replay of one run agrees on everything.

A certified eager run that writes nothing folds one summary per barrier epoch
(:class:`repro.hb.skeleton.PricedTape`) instead of sending message by
message, as a lazy cell does once its tape is kept; the epoch invariant
and the exact metrics drain sequence are pinned here for all seven
protocols. These tests pin that fold against
the per-event interpreter it bypasses — for values, and as the watched run
a message-logging probe asks for, which is told of every message — on
the result, every counter, and the metrics probe's rows down to the order
they were created in; that the fold really sends nothing while a watched
run still sends everything; that no eager replay builds the run program;
and that a timed cell — whose runs walk the steps writing its send log
until one is kept, then fold the priced tape beside it — still produces
the golden clocks. The random-trace
property at the end runs the same comparison, oracle included, over all
seven protocols: it is also what fuzzes the lazy family's first-touch
run program.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SimConfig
from repro.hb.skeleton import batch_plan, plan_stats
from repro.network.costs import CostModel
from repro.network.link import LinkModel
from repro.network.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import MISS_CAUSE, RecordingProbe
from repro.obs.sinks import ColumnarSink, MemorySink
from repro.obs.spans import SpanProbe
from repro.protocols.registry import all_protocol_names, protocol_class
from repro.simulator.engine import Engine, simulate
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from repro.trace.precompile import OP_READ_N, OP_WRITE_N
from tests.conftest import (
    SMALL_SCALE,
    MessageLogProbe,
    SpanMessageLogProbe,
    assert_loops_agree,
    build_trace,
    interpreter_engine,
    interpreter_result,
    kept_parts,
    ledger_fields,
    run_loop,
    small_trace,
)
from tests.test_protocol_properties import N_PROCS, interleave, race_free_programs
from tests.test_send_log import GOLDEN, LINKS

EAGER = ("EI", "EU", "EW")

#: Every accounting policy the pricing resolves at build time, flipped
#: one at a time and all together.
COST_MODELS = {
    "paper": CostModel(),
    "free_acks": CostModel(count_acks=False),
    "header_in_data": CostModel(count_header_in_data=True),
    "control_in_data": CostModel(count_control_in_data=True),
    "all_flipped": CostModel(
        count_acks=False, count_header_in_data=True, count_control_in_data=True
    ),
}

#: What ``Engine.run()`` chooses between: the tape (a cell's first
#: observer, the run that records its stream once it is observed again,
#: and every one that reads it), and the interpreter for a message
#: watcher or for values.
RUN_LOOPS = ("tape", "watched", "per_event", "recorded", "reused")


def midspan_trace():
    """A remote flush lands in the middle of another processor's span.

    Both words share a page at every page size. p0 opens a span on the
    page and p1's release flushes into it — EI invalidates p0's copy, EW
    had already revoked its ownership — so p0's next access misses
    *again*, with no synchronization of its own in between: the same
    (proc, page) span misses twice, which is what a sync-ordered tape
    has to replay at the right point. The second round leaves p0 an
    excess invalidator (dirty and invalidated when it flushes); the
    accesses after the barrier are the tape's tail.
    """
    a, b = 0x0, 0x8
    p1_writes_under_lock = [Event.acquire(1, 0), Event.write(1, b), Event.release(1, 0)]
    return build_trace(
        2,
        [
            Event.write(0, a),
            *p1_writes_under_lock,
            Event.write(0, a),
            Event.read(0, a),
            Event.acquire(0, 0),
            Event.release(0, 0),
            Event.write(0, a),
            *p1_writes_under_lock,
            Event.acquire(0, 0),
            Event.release(0, 0),
            Event.at_barrier(0, 0),
            Event.at_barrier(1, 0),
            Event.read(1, a),
            Event.write(0, b),
        ],
    )


@pytest.fixture(scope="module", params=[*sorted(SMALL_SCALE), "midspan"])
def app_trace(request):
    """conftest's one small trace per application, plus the hand trace."""
    return midspan_trace() if request.param == "midspan" else small_trace(request.param)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("cost_key", sorted(COST_MODELS))
    @pytest.mark.parametrize("free_reacquire", [True, False], ids=["free", "paid"])
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("protocol", EAGER)
    def test_priced_equals_per_message_equals_per_event(
        self, app_trace, protocol, page_size, free_reacquire, cost_key
    ):
        config = SimConfig(
            n_procs=app_trace.n_procs,
            page_size=page_size,
            cost_model=COST_MODELS[cost_key],
            free_local_lock_reacquire=free_reacquire,
        )
        priced = assert_loops_agree(app_trace, protocol, config, RUN_LOOPS, sink=None)
        assert priced["body"]["messages"] > 0

    @pytest.mark.parametrize("protocol", EAGER)
    def test_without_a_probe(self, app_trace, protocol):
        config = SimConfig(n_procs=app_trace.n_procs, page_size=1024)
        priced = simulate(app_trace, protocol, config=config)
        reference = interpreter_result(app_trace, protocol, config)
        assert priced.manifest["execution_path"] == "tape"
        assert ledger_fields(priced) == ledger_fields(reference)


class TestMidSpanRemiss:
    """The one case the tape's old run-instruction tags existed for."""

    # Three processors: the config may be wider than the trace (the
    # barrier then never completes, on any path).
    @pytest.mark.parametrize("n_procs", [2, 3])
    @pytest.mark.parametrize("protocol", EAGER)
    def test_every_path_sends_the_same_things_in_the_same_order(self, protocol, n_procs):
        trace = midspan_trace()
        config = SimConfig(n_procs=n_procs, page_size=512)
        tape = Engine(trace, config, protocol).run()
        assert tape.manifest["execution_path"] == "tape"
        if protocol != "EU":  # an update protocol never invalidates
            assert tape.invalid_misses >= 2

        def watched(loop, make_probe=SpanMessageLogProbe):
            _, probe, result = run_loop(trace, protocol, config, loop, make_probe, MemorySink())
            assert ledger_fields(result) == ledger_fields(tape)
            return getattr(probe, "log", None), probe.sinks[0].events, probe.records

        # A message-logging subclass is what has a span probe's run
        # interpreted; a stock one rides the tape.
        kept = watched("watched")
        assert kept == watched("per_event") == watched("reference")
        assert len(kept[0]) == tape.messages
        # The tape kernels write the record stream the hooks would have.
        assert watched("tape", SpanProbe)[1:] == kept[1:]


class TestNoRunProgram:
    @pytest.mark.parametrize("protocol", EAGER)
    def test_eager_replays_leave_the_run_program_unbuilt(self, protocol):
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)

        def sink_probe():
            return RecordingProbe(sinks=[ColumnarSink()])

        class EpochWatcher(SpanProbe):
            def advance_epoch(self):
                super().advance_epoch()

        runs = [
            ("tape", Engine(trace, config, protocol)),
            # A sink's run walks the steps once, writing its events; the
            # span probe, observing the cell again, records its stream
            # the same way; the next sink reads that stream.
            ("tape", Engine(trace, config, protocol, probe=sink_probe())),
            ("tape", Engine(trace, config, protocol, probe=SpanProbe())),
            ("tape", Engine(trace, config, protocol, probe=sink_probe())),
            # So does a timed run's send log.
            ("tape", Engine(trace, config.with_options(link_model=LinkModel.ideal()), protocol)),
            ("subclassed_probe", Engine(trace, config, protocol, probe=EpochWatcher())),
            (
                "subclassed_probe",
                Engine(trace, config, protocol, probe=MessageLogProbe(sinks=[ColumnarSink()])),
            ),
        ]
        for reason, engine in runs:
            manifest = engine.run().manifest
            assert manifest.get("decline_reason", "tape") == reason
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        assert kept_parts(plan, "stream") and plan._runs is None and plan._skeleton is None
        # The lazy family is what needs it.
        simulate(trace, "LI", config=config)
        assert plan._runs is not None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.sampled_from([64, 1024]),
    st.booleans(),
    st.sampled_from(sorted(COST_MODELS)),
)
def test_random_race_free_traces(program, page_size, free_reacquire, cost_key):
    """All seven protocols, all three loops, the interpreter both plain
    and under a message watcher: the lazy family's tape replay sees a
    span only through its first touch, the interpreter and the oracle
    see every access — and nothing a run reports (ledger, counters,
    metrics, staged-row order, the event stream a ``MemorySink``
    receives; under a ``SpanProbe`` the record stream and every span,
    flow and epoch row of the timeline built from it) can tell."""
    scripts, seed = program
    trace = interleave(scripts, seed)
    config = SimConfig(
        n_procs=N_PROCS,
        page_size=page_size,
        cost_model=COST_MODELS[cost_key],
        free_local_lock_reacquire=free_reacquire,
    )
    for protocol in all_protocol_names():
        for make_probe in (RecordingProbe, SpanProbe):
            tape = assert_loops_agree(trace, protocol, config, make_probe=make_probe)
        assert len(tape["records"]) > 0 and tape["timeline"]["spans"]


class TestNoSends:
    @pytest.fixture
    def sends(self, monkeypatch):
        calls = []
        real_send = Network.send

        def spy(self, kind, src, dst, *args, **kwargs):
            calls.append((kind, src, dst))
            return real_send(self, kind, src, dst, *args, **kwargs)

        monkeypatch.setattr(Network, "send", spy)
        return calls

    @pytest.mark.parametrize(
        "probe",
        [None, RecordingProbe, lambda: RecordingProbe(sinks=[MemorySink()])],
        ids=["bare", "metrics", "sink"],
    )
    @pytest.mark.parametrize("protocol", EAGER)
    def test_certified_counting_run_never_calls_send(self, water_trace, sends, protocol, probe):
        result = simulate(
            water_trace, protocol, page_size=1024, probe=probe() if probe else None
        )
        assert result.manifest["execution_path"] == "tape"
        assert result.messages > 0
        assert sends == []

    @pytest.mark.parametrize("protocol", EAGER)
    def test_sink_attached_run_still_sends_every_message(self, water_trace, sends, protocol):
        """...once something watches the messages themselves: the sink
        alone rides the tape (the ``sink`` case above), a message-logging
        probe has the same run interpreted."""

        config = SimConfig(n_procs=water_trace.n_procs, page_size=1024)

        def watched(loop):
            del sends[:]
            _, probe, result = run_loop(
                water_trace, protocol, config, loop, MessageLogProbe, MemorySink()
            )
            return result, list(sends), probe.log

        kept, kept_sends, kept_log = watched("watched")
        per_event, per_event_sends, per_event_log = watched("per_event")
        # Same messages, same order, with or without values — local hops included.
        assert kept_sends == per_event_sends
        remote = [call for call in kept_sends if call[1] != call[2]]
        assert len(remote) == kept.messages == per_event.messages
        # ...and the probe was told of exactly the remote ones, in that order.
        assert [message[:3] for message in kept_log] == remote
        assert kept_log == per_event_log


class TestPlanCache:
    def test_priced_tapes_are_counted_apart_and_keyed_by_cost(self):
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)

        def delta(run_config, probe=None):
            before = plan_stats()
            simulate(trace, "EI", config=run_config, probe=probe)
            after = plan_stats()
            return {k: after[k] - before[k] for k in after if after[k] != before[k]}

        # Cold and unobserved: the walk is priced as it goes, and
        # nothing but the priced tape is kept.
        assert delta(config) == {"plan_builds": 1, "priced_tape_builds": 1}
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        assert not plan._records
        # Warm: one priced-tape hit.
        assert delta(config) == {"plan_hits": 1, "priced_tape_hits": 1}
        # A new cost key walks again.
        other = config.with_options(cost_model=COST_MODELS["all_flipped"])
        assert delta(other) == {"plan_hits": 1, "priced_tape_builds": 1}
        # A sink's run walks the steps once, for its events, and neither
        # reads nor keeps a priced tape; it keeps nothing either (it is
        # the first to note the cell). Observing the cell again walks
        # them for the cell's record stream and keeps the stream, not
        # the steps...
        assert delta(config, RecordingProbe(sinks=[ColumnarSink()])) == {"plan_hits": 1}
        assert delta(config, RecordingProbe(sinks=[ColumnarSink()])) == {
            "plan_hits": 1,
            "record_builds": 1,
        }
        # ...which every later observer of the cell reads, walking
        # nothing: it folds the priced tape.
        assert delta(config, SpanProbe()) == {
            "plan_hits": 1,
            "priced_tape_hits": 1,
            "record_hits": 1,
        }
        # A new cost key prices a fresh walk.
        headers = config.with_options(cost_model=COST_MODELS["header_in_data"])
        assert delta(headers) == {"plan_hits": 1, "priced_tape_builds": 1}
        paid = config.with_options(free_local_lock_reacquire=False)
        assert delta(paid)["priced_tape_builds"] == 1

    def test_manifest_and_sweep_log_report_a_priced_build_without_an_unpriced_one(
        self, caplog, monkeypatch
    ):
        # (The CLI tests' logging_setup() stops "repro" records reaching caplog.)
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        trace = small_trace("water")
        cold = simulate(trace, "EU", page_size=1024)
        assert cold.manifest["plan_cache"] == {"plan_builds": 1, "priced_tape_builds": 1}
        with caplog.at_level("INFO", logger="repro.simulator.sweep"):
            run_sweep(small_trace("water"), protocols=list(EAGER), page_sizes=[512, 1024])
        (line,) = [r.getMessage() for r in caplog.records if "plan cache" in r.getMessage()]
        assert "8 builds (2 plan / 6 priced tape)" in line
        assert "12 lookups" in line  # 6 cells x (plan + priced tape), nothing else

    def test_one_entry_per_barrier_epoch(self):
        """A kept tape, of either family, against the interpreter: one
        entry per completed barrier episode plus the tail, deltas summing
        to its ledger, and rows first used in the order its probe
        created them."""
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        for protocol in all_protocol_names():
            probe = RecordingProbe()
            engine = interpreter_engine(trace, protocol, config, probe=probe)
            interpreted = engine.run()
            if protocol_class(protocol).lazy:
                key = (protocol_class(protocol), config)
                record = plan._records.get(key)
                while record is None or record.priced is None:  # the second tape run records it
                    simulate(trace, protocol, config=config)
                    record = plan._records.get(key)
                tape = record.priced
            else:
                tape = plan.priced_eager_tape(protocol, CostModel(), True)
            episodes = engine.protocol.barriers.episodes_completed
            assert episodes > 0
            completes = [complete for *_, complete in tape.epochs]
            assert completes == [True] * episodes + [False], protocol
            ledger = Network(trace.n_procs)
            for deltas, _rows, _complete in tape.epochs:
                ledger.apply_tape(deltas)
            assert ledger.stats.snapshot() == interpreted.stats.snapshot(), protocol
            first_used = {cause: None for _, rows, _ in tape.epochs for cause, *_add in rows}
            staged = [cause for cause in probe._segments if cause != MISS_CAUSE]
            assert [cause for cause in first_used if cause != MISS_CAUSE] == staged, protocol

    def test_eager_steps_are_sync_ordered(self):
        from repro.trace.runs import R_ACQUIRE

        trace = small_trace("water")
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        syncs = [ins for ins in plan.runs if ins[0] >= R_ACQUIRE]
        for policy in EAGER:
            steps = plan.eager_steps(policy)
            assert [sync for sync, _gap, _flush in steps[:-1]] == syncs
            # A miss or fault record keeps its access's position: the
            # op's index (its event's seq), a send log's key for the
            # messages it sends.
            ops = plan.ops
            for _sync, gap, _flush in steps:
                for rec in gap:
                    op = ops[rec[1]]
                    multi = op[0] in (OP_READ_N, OP_WRITE_N)
                    pages = [page for page, _ in op[2]] if multi else [op[2]]
                    assert op[1] == rec[2] and rec[3] in pages


class TestDrainSequence:
    """What a probe drains into its registry, call by call, is the same
    whether the run ran the kernels, folded a kept tape or was
    interpreted."""

    @pytest.mark.parametrize("sink", [None, MemorySink], ids=["metrics", "sink"])
    @pytest.mark.parametrize("protocol", all_protocol_names())
    def test_record_segment_calls_match_across_loops(self, protocol, sink, monkeypatch):
        calls = []
        real = MetricsRegistry.record_segment

        def spy(self, epoch, cause, *row):
            calls.append((self, epoch, cause, *row))
            real(self, epoch, cause, *row)

        monkeypatch.setattr(MetricsRegistry, "record_segment", spy)
        trace = small_trace("pthor")  # a fresh plan: the first tape run is cold
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)
        drained = {}
        for loop in ("tape", "folded", "per_event"):
            _, probe, _ = run_loop(
                trace, protocol, config, loop, RecordingProbe, sink() if sink else None
            )
            # (The cells run_loop primes drain registries of their own.)
            drained[loop] = [call[1:] for call in calls if call[0] is probe.metrics]
        assert drained["tape"] and len({epoch for epoch, *_ in drained["tape"]}) > 1
        assert drained["folded"] == drained["tape"] == drained["per_event"]


class TestTimedWarmCell:
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("protocol", EAGER)
    def test_priced_replay_plus_fold_matches_the_golden_clocks(self, protocol, link_name):
        trace = small_trace("water", n_procs=4)
        link = LINKS[link_name]
        counting = simulate(trace, protocol, page_size=1024)
        runs = [simulate(trace, protocol, page_size=1024, link_model=link) for _ in range(3)]
        records = [r.manifest.get("record", {}) for r in runs]
        assert [r.manifest["execution_path"] for r in runs] == ["tape"] * 3
        assert [(record.get("log"), record.get("priced")) for record in records] == [
            (None, None),
            ("recorded", None),
            ("reused", "reused"),
        ]
        # The writing runs walked the eager steps and kept only the log;
        # the reading one folds the tape the counting run priced.
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        assert len(kept_parts(plan, "log")) == 1 and not kept_parts(plan, "stream")
        for run in runs:
            assert run.timing == GOLDEN[f"{protocol}/{link_name}"]
            assert ledger_fields(run) == ledger_fields(counting)
