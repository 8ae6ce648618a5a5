"""Telemetry layer: probes, sinks, metrics reconciliation, provenance.

The load-bearing property is *exact* reconciliation: a RecordingProbe's
per-epoch breakdown must sum to the run's headline aggregates for every
protocol, because the probe hook in ``Network.send`` mirrors the ledger
update with the same values and the epoch boundary is the same barrier
transition the protocols share. These tests pin that, plus the null
recorder's no-op semantics, sink round-trips, sweep metric merging, and
the run manifest.
"""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    NULL_PROBE,
    ColumnarSink,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Probe,
    RecordingProbe,
    merge_metrics,
    read_jsonl,
)
from repro.network.link import LinkModel
from repro.obs.metrics import EPOCH_FIELDS
from repro.obs.probe import EVENT_KINDS
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import simulate
from repro.simulator.sweep import run_sweep
from tests.conftest import lock_chain_trace, path_and_reason, small_trace

ALL = all_protocol_names()


def _epoch_sum(metrics, field):
    return sum(row[field] for row in metrics["epochs"])


class TestNullProbe:
    def test_all_methods_are_noops(self):
        probe = Probe()
        assert probe.enabled is False
        probe.emit("acquire", proc=1, lock=2)
        probe.begin("lock", 3)
        probe.end()
        probe.advance_epoch()
        probe.on_message("kind", 0, 1, 100, 10, True)
        probe.page_fault(0, 5, True)
        probe.close()

    def test_protocols_start_with_null_probe(self, water_trace):
        from repro.protocols.registry import protocol_class
        from repro.config import SimConfig

        for name in ALL:
            protocol = protocol_class(name)(SimConfig(n_procs=4))
            assert protocol.probe is NULL_PROBE
            assert protocol._obs is False

    @pytest.mark.parametrize("protocol", ALL)
    def test_recording_does_not_change_results(self, water_trace, protocol):
        """Attaching a probe must be observationally free."""
        plain = simulate(water_trace, protocol, page_size=1024)
        probed = simulate(
            water_trace, protocol, page_size=1024,
            probe=RecordingProbe(sinks=[MemorySink()]),
        )
        assert plain.messages == probed.messages
        assert plain.data_bytes == probed.data_bytes
        assert plain.control_bytes == probed.control_bytes
        assert plain.misses == probed.misses
        assert plain.counters == probed.counters


class TestEpochReconciliation:
    @pytest.mark.parametrize("protocol", ALL)
    def test_epoch_sums_equal_run_totals(self, app_trace, protocol):
        """The tentpole invariant: decomposition == aggregate, exactly."""
        result = simulate(
            app_trace, protocol, page_size=1024, probe=RecordingProbe()
        )
        metrics = result.metrics
        assert metrics is not None
        assert _epoch_sum(metrics, "messages") == result.messages
        assert _epoch_sum(metrics, "data_bytes") == result.data_bytes
        assert _epoch_sum(metrics, "control_bytes") == result.control_bytes
        assert _epoch_sum(metrics, "misses") == result.misses

    @pytest.mark.parametrize("protocol", ALL)
    def test_cause_split_partitions_messages(self, water_trace, protocol):
        """Every message is attributed to exactly one cause."""
        result = simulate(
            water_trace, protocol, page_size=1024, probe=RecordingProbe()
        )
        by_cause = sum(
            row["lock_messages"] + row["barrier_messages"] + row["miss_messages"]
            for row in result.metrics["epochs"]
        )
        assert by_cause == result.messages

    def test_lock_table_within_lock_cause(self, water_trace):
        result = simulate(
            water_trace, "LI", page_size=1024, probe=RecordingProbe()
        )
        lock_msgs = sum(
            row["messages"] for row in result.metrics["locks"].values()
        )
        assert lock_msgs == _epoch_sum(result.metrics, "lock_messages")
        assert lock_msgs > 0  # water takes locks

    def test_epochs_track_barriers(self):
        """N completed barrier episodes -> rows for epochs 0..N."""
        trace = lock_chain_trace(n_procs=3, rounds=2)  # no barriers
        result = simulate(trace, "LI", page_size=512, probe=RecordingProbe())
        assert len(result.metrics["epochs"]) == 1

    def test_without_probe_no_metrics(self, water_trace):
        assert simulate(water_trace, "LI", page_size=1024).metrics is None


class TestEvents:
    def test_jsonl_round_trip(self, water_trace, tmp_path):
        path = tmp_path / "events.jsonl"
        memory = MemorySink()
        probe = RecordingProbe(sinks=[memory, JsonlSink(path)])
        simulate(water_trace, "LU", page_size=1024, probe=probe)
        probe.close()
        loaded = read_jsonl(path)
        assert loaded == memory.events
        assert loaded  # something was emitted

    def test_jsonl_accepts_open_file(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.record({"seq": 0, "kind": "acquire", "epoch": 0, "proc": 1})
        sink.close()
        assert read_jsonl(io.StringIO(buffer.getvalue())) == [
            {"seq": 0, "kind": "acquire", "epoch": 0, "proc": 1}
        ]

    def test_columnar_round_trip(self, water_trace):
        memory, columnar = MemorySink(), ColumnarSink()
        probe = RecordingProbe(sinks=[memory, columnar])
        simulate(water_trace, "HLRC", page_size=1024, probe=probe)
        assert columnar.to_events() == memory.events
        assert len(columnar) == len(memory.events) > 0
        assert sum(columnar.counts_by_kind().values()) == len(memory.events)

    @pytest.mark.parametrize("protocol", ["LU", "EI"])
    def test_sinks_are_complete_when_simulate_returns(self, water_trace, protocol):
        """No ``probe.close()`` needed: the rows staged since the last
        epoch boundary are drained when the engine builds its result.
        A duck-typed sink with only ``record(event)`` gets the same
        dicts as ``MemorySink``."""

        class RecordOnly:
            def __init__(self):
                self.seen = []

            def record(self, event):
                self.seen.append(event)

        memory, duck = MemorySink(), RecordOnly()
        probe = RecordingProbe(sinks=[memory, duck])
        result = simulate(water_trace, protocol, page_size=1024, probe=probe)
        assert result.manifest["execution_path"] == "tape"
        assert not probe._rows
        assert [event["seq"] for event in memory.events] == list(range(len(memory.events)))
        # The tail after the last barrier is there too.
        assert memory.events[-1]["epoch"] == len(result.metrics["epochs"]) - 1
        assert duck.seen == memory.events
        closed = MemorySink()
        probe = RecordingProbe(sinks=[closed])
        simulate(water_trace, protocol, page_size=1024, probe=probe)
        probe.close()
        assert closed.events == memory.events

    def test_event_schema(self, water_trace):
        sink = MemorySink()
        simulate(
            water_trace, "LI", page_size=1024, probe=RecordingProbe(sinks=[sink])
        )
        kinds = set()
        for index, event in enumerate(sink.events):
            assert event["seq"] == index
            assert event["kind"] in EVENT_KINDS
            assert event["epoch"] >= 0
            kinds.add(event["kind"])
        # The lazy-invalidate replay must exercise the core LRC events.
        assert {
            "acquire", "release", "barrier_arrive", "barrier_complete",
            "interval_close", "page_fault",
        } <= kinds

    def test_event_epochs_match_metrics(self, water_trace):
        """Event stream and metrics agree on per-epoch miss counts."""
        sink = MemorySink()
        result = simulate(
            water_trace, "EW", page_size=1024, probe=RecordingProbe(sinks=[sink])
        )
        per_epoch = {}
        for event in sink.events:
            if event["kind"] == "page_fault":
                per_epoch[event["epoch"]] = per_epoch.get(event["epoch"], 0) + 1
        for index, row in enumerate(result.metrics["epochs"]):
            assert row["misses"] == per_epoch.get(index, 0)


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.count("x", 2)
        registry.observe("sizes", 4)
        registry.observe("sizes", 4)
        registry.observe("sizes", 7)
        snap = registry.snapshot()
        assert snap["counters"] == {"x": 3}
        assert snap["histograms"] == {"sizes": {"4": 2, "7": 1}}

    def test_merge_zero_pads_epochs(self):
        a = MetricsRegistry()
        a.record_segment(0, ("miss", -1), 1, 10, 1, 0)
        b = MetricsRegistry()
        b.record_segment(2, ("lock", 5), 1, 0, 2, 0)
        merged = merge_metrics([a.snapshot(), None, b.snapshot()])
        assert len(merged["epochs"]) == 3
        assert merged["epochs"][0]["messages"] == 1
        assert merged["epochs"][1]["messages"] == 0
        assert merged["epochs"][2]["lock_messages"] == 1
        assert merged["locks"] == {"5": {"messages": 1, "data_bytes": 0, "control_bytes": 2}}
        assert set(merged["epochs"][0]) == set(EPOCH_FIELDS)


class TestSweepMetrics:
    def test_serial_and_parallel_merge_identically(self):
        trace = small_trace("water", n_procs=4)
        serial = run_sweep(
            trace, protocols=["LI", "EU"], page_sizes=[512, 1024], metrics=True
        )
        parallel = run_sweep(
            trace, protocols=["LI", "EU"], page_sizes=[512, 1024],
            jobs=2, metrics=True,
        )
        assert serial.merged_metrics() == parallel.merged_metrics()
        assert serial.merged_metrics("LI") == parallel.merged_metrics("LI")

    def test_merged_metrics_sum_grid_totals(self):
        trace = small_trace("mp3d", n_procs=4)
        sweep = run_sweep(
            trace, protocols=["LI"], page_sizes=[512, 2048], metrics=True
        )
        merged = sweep.merged_metrics()
        expected = sum(sweep.result("LI", s).messages for s in (512, 2048))
        assert _epoch_sum(merged, "messages") == expected

    def test_sweep_without_metrics_merges_empty(self):
        trace = small_trace("water", n_procs=4)
        sweep = run_sweep(trace, protocols=["LI"], page_sizes=[512])
        assert sweep.result("LI", 512).metrics is None
        assert sweep.merged_metrics()["epochs"] == []

    def test_sweep_manifest(self):
        trace = small_trace("water", n_procs=4)
        sweep = run_sweep(trace, protocols=["LI"], page_sizes=[512, 1024])
        manifest = sweep.manifest()
        assert manifest["app"] == "water"
        assert manifest["trace_digest"] == trace.digest()
        assert manifest["sweep_protocols"] == ["LI"]
        assert manifest["sweep_page_sizes"] == [512, 1024]


class TestManifest:
    def test_result_carries_provenance(self, water_trace):
        result = simulate(water_trace, "LI", page_size=1024)
        assert result.seed == 1  # conftest small_trace default
        assert result.trace_digest == water_trace.digest()
        manifest = result.manifest
        assert manifest["app"] == "water"
        assert manifest["seed"] == 1
        assert manifest["trace_digest"] == water_trace.digest()
        assert manifest["config"]["page_size"] == 1024
        assert manifest["timings_s"]["simulate_s"] >= 0

    def test_timed_manifest_names_path_and_send_log(self):
        from repro.config import SimConfig

        trace = small_trace("water", n_procs=4)
        config = SimConfig(
            n_procs=4, page_size=1024,
            link_model=LinkModel.ethernet_1992(loss=0.02, timeout_s=2e-3),
        )
        counting = simulate(trace, "LI", config=config.with_options(link_model=None))
        assert counting.manifest["execution_path"] == "tape"
        assert "decline_reason" not in counting.manifest
        assert "record" not in counting.manifest
        # The counting run noted the cell, so the first timed run keeps
        # the log its counting path records on the way (and the priced
        # tape the kernels record).
        cold = simulate(trace, "LI", config=config).manifest
        assert (cold["execution_path"], cold["record"]) == (
            "tape", {"log": "recorded", "priced": "recorded"}
        )
        assert "decline_reason" not in cold
        assert cold["plan_cache"]["record_builds"] == 2
        assert cold["timings_s"].keys() >= {"record_s", "fold_s", "simulate_s"}
        # Warm: the counting run's own path, folded, plus a clock fold.
        warm = simulate(trace, "LI", config=config).manifest
        assert (warm["execution_path"], warm["record"]) == (
            "tape", {"log": "reused", "priced": "reused"}
        )
        assert warm["plan_cache"]["record_hits"] == 2
        assert "record_builds" not in warm["plan_cache"]
        assert "record_s" not in warm["timings_s"]
        assert warm["timings_s"]["simulate_s"] >= warm["timings_s"]["fold_s"] > 0

    @pytest.mark.parametrize(
        "reason, path, protocol, setup",
        [
            (None, "tape", "EI", {}),
            # A stock probe's sinks are fed from the tape records.
            (None, "tape", "LI", {"probe": "sink"}),
            # Watchers are interpreted: a hook override on top of either
            # stock class.
            pytest.param(
                "subclassed_probe", "per_event", "EU", {"probe": "counting_span"},
                id="subclassed_probe-per_event-EU",
            ),
            # (ids as generated before the handler / keep_log rows went)
            pytest.param(
                "record_values", "per_event", "LI", {"config": {"record_values": True}},
                id="record_values-per_event-LI-setup5",
            ),
            pytest.param(
                "uncertified_class", "per_event", "override", {},
                id="uncertified_class-per_event-override-setup6",
            ),
            # A cold timed cell records its send log on the tape.
            pytest.param(
                None, "tape", "EI", {"config": {"link_model": LinkModel.ideal()}},
                id="None-tape-EI-setup7",
            ),
            # The span record stream is written by the tape kernels.
            pytest.param(None, "tape", "EU", {"probe": "span"}, id="None-tape-EU-setup8"),
        ],
    )
    def test_execution_path_and_decline_reason(self, reason, path, protocol, setup):
        from repro.config import SimConfig
        from repro.obs.spans import SpanProbe
        from repro.protocols.lazy_invalidate import LazyInvalidate
        from repro.simulator.engine import Engine

        class Overriding(LazyInvalidate):
            def _receive(self, proc, grouped, vc_after, pull_kinds):
                super()._receive(proc, grouped, vc_after, pull_kinds)

        class CountingSpanProbe(SpanProbe):
            messages = 0

            def on_message(self, *args):
                self.messages += 1
                super().on_message(*args)

        trace = small_trace("water", n_procs=4)
        config = SimConfig(n_procs=4, page_size=1024, **setup.get("config", {}))
        probe = {
            "sink": lambda: RecordingProbe(sinks=[MemorySink()]),
            "span": SpanProbe,
            "counting_span": CountingSpanProbe,
        }.get(setup.get("probe"), lambda: None)()
        engine = Engine(
            trace, config, Overriding if protocol == "override" else protocol, probe=probe
        )
        result = engine.run()
        assert path_and_reason(result) == (path, reason)
        if isinstance(probe, CountingSpanProbe):
            # Every hook is called there: it saw, and recorded, every message.
            tags = [record[0] for record in probe.records]
            assert probe.messages == tags.count("msg") == result.messages > 0

    @pytest.mark.parametrize("protocol", ["LI", "EU"])
    def test_an_emit_only_override_sees_every_event(self, protocol):
        """``emit`` is a hook the tapes bypass when they stage rows, so
        a probe overriding only it declines the tape and is called for
        every event a stock probe's sink receives."""

        class EmitCounter(RecordingProbe):
            def __init__(self, sinks):
                super().__init__(sinks=sinks)
                self.kinds = []

            def emit(self, kind, proc=-1, **fields):
                self.kinds.append(kind)
                super().emit(kind, proc, **fields)

        trace = small_trace("water", n_procs=4)
        probe, stock = EmitCounter([MemorySink()]), MemorySink()
        watched = simulate(trace, protocol, page_size=1024, probe=probe)
        assert path_and_reason(watched) == ("per_event", "subclassed_probe")
        simulate(trace, protocol, page_size=1024, probe=RecordingProbe(sinks=[stock]))
        assert probe.kinds == [event["kind"] for event in stock.events]
        assert probe.sinks[0].events == stock.events

    @pytest.mark.parametrize("protocol", ["LI", "LU", "LH", "HLRC", "EI", "EU", "EW"])
    def test_an_overridden_probe_hook_is_always_called(self, protocol):
        """A probe that overrides a hook the tapes bypass — here only
        ``page_fault`` — is interpreted, so it sees every call, and the
        manifest says why the tape was declined."""

        class FaultCounter(RecordingProbe):
            faults = 0

            def page_fault(self, proc, page, cold):
                self.faults += 1
                super().page_fault(proc, page, cold)

        trace = small_trace("water", n_procs=4)
        probe = FaultCounter()
        result = simulate(trace, protocol, page_size=1024, probe=probe)
        assert probe.faults == result.cold_misses + result.invalid_misses > 0
        assert path_and_reason(result) == ("per_event", "subclassed_probe")
        stock = simulate(trace, protocol, page_size=1024, probe=RecordingProbe())
        assert stock.manifest["execution_path"] == "tape"
        assert result.metrics == stock.metrics

    def test_certify_replay_is_total_and_ordered(self):
        """Over everything a run can observe, ``certify_replay`` answers
        ``tape`` or ``per_event`` and nothing else, gives a reason
        exactly when it declines the tape, that reason is the first
        applicable one in the documented order, and the three documented
        reasons are all there are. (A timed run is no case of its own:
        recording a send log observes nothing the tape cannot supply.)"""
        from itertools import product

        from repro.config import SimConfig
        from repro.obs.spans import SpanProbe
        from repro.protocols.base import certify_replay
        from repro.protocols.registry import protocol_class

        class Watcher(RecordingProbe):
            def on_message(self, *args):
                super().on_message(*args)

        probes = {
            "none": lambda: None,
            "stock": RecordingProbe,
            "stock_sink": lambda: RecordingProbe(sinks=[MemorySink()]),
            "span": SpanProbe,
            "watcher": Watcher,
        }
        reasons = set()
        cases = 0
        for name in ("LI", "LU", "LH", "HLRC", "EI", "EU", "EW"):
            stock = protocol_class(name)
            alias = type("Alias", (stock,), {})
            for cls, kind, values in product((stock, alias), probes, (False, True)):
                protocol = cls(SimConfig(n_procs=2, record_values=values))
                probe = probes[kind]()
                if probe is not None:
                    protocol.attach_probe(probe)
                applicable = [
                    ("record_values", values),
                    ("uncertified_class", cls is alias),
                    ("subclassed_probe", kind == "watcher"),
                ]
                expected = next((reason for reason, holds in applicable if holds), None)
                path, reason = certify_replay(protocol)
                case = (name, cls is alias, kind, values)
                assert path in ("tape", "per_event"), case
                assert (reason is None) == (path == "tape"), case
                assert reason == expected, case
                reasons.add(reason)
                cases += 1
        assert cases == 140
        assert reasons == {None, "record_values", "uncertified_class", "subclassed_probe"}

    def test_to_dict_uniform_provenance(self, app_trace):
        row = simulate(app_trace, "EI", page_size=2048).to_dict()
        for key in ("app", "protocol", "page_size", "seed", "trace_digest"):
            assert key in row, key
        assert row["trace_digest"] == app_trace.digest()
        # to_dict stays deterministic: no wall-clock keys.
        assert "timings_s" not in row["manifest"]
        assert "created" not in row["manifest"]
        assert "execution_path" not in row["manifest"]
        assert "decline_reason" not in row["manifest"]

    def test_digest_stable_and_seed_sensitive(self):
        a1 = small_trace("water", n_procs=4, seed=1)
        a2 = small_trace("water", n_procs=4, seed=1)
        b = small_trace("water", n_procs=4, seed=2)
        assert a1.digest() == a2.digest()
        assert a1.digest() != b.digest()

    def test_digest_invalidated_by_append(self):
        from repro.trace.events import Event
        from tests.conftest import build_trace

        trace = build_trace(2, [Event.read(0, 0x10)])
        before = trace.digest()
        trace.append(Event.write(1, 0x20))
        assert trace.digest() != before


class TestEpochReport:
    def test_report_renders_and_reconciles(self, water_trace):
        from repro.analysis.epoch_report import format_report, run_with_metrics

        result = run_with_metrics(water_trace, "LU", page_size=1024)
        text = format_report(result)
        assert "traffic by barrier epoch" in text
        assert "traffic by lock" in text
        assert "epoch sums == run totals" in text
        assert f"msgs={result.messages}" in text

    def test_report_requires_metrics(self, water_trace):
        from repro.analysis.epoch_report import format_report

        plain = simulate(water_trace, "LI", page_size=1024)
        with pytest.raises(ValueError):
            format_report(plain)
