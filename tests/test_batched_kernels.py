"""Equivalence suite for the tape replay kernels.

The acceptance bar: on the path a plain run certifies (the tape, sinks
attached or not) every accounting field, every counter, and every
emitted telemetry event must be bit-identical to the per-event
interpreter — the loop a value-recording run takes, and the one a
message-watching probe asks for — across all protocols, all apps, the
full sweep grid, and every protocol-option ablation.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import SimConfig
from repro.network.costs import CostModel
from repro.obs.probe import RecordingProbe
from repro.obs.spans import SpanProbe
from repro.protocols.base import certify_replay
from repro.protocols.registry import protocol_class
from repro.simulator.engine import Engine, simulate
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from tests.conftest import (
    assert_loops_agree,
    build_trace,
    interpreter_result,
    ledger_fields,
    lock_chain_trace,
    small_trace,
)

LAZY_PROTOCOLS = ("LI", "LU", "LH", "HLRC")
EAGER_PROTOCOLS = ("EI", "EU", "EW")
ALL_BATCHED = LAZY_PROTOCOLS + EAGER_PROTOCOLS


def run_batched_and_reference(trace, protocol, **options):
    config = SimConfig(n_procs=trace.n_procs, **options)
    batched = Engine(trace, config, protocol).run()
    assert batched.manifest["execution_path"] == "tape"
    return batched, interpreter_result(trace, protocol, config)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    @pytest.mark.parametrize("page_size", [512, 2048])
    def test_apps_bit_identical(self, app_trace, protocol, page_size):
        batched, reference = run_batched_and_reference(
            app_trace, protocol, page_size=page_size
        )
        assert ledger_fields(batched) == ledger_fields(reference)

    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_lock_chain_bit_identical(self, protocol):
        trace = lock_chain_trace(n_procs=4, rounds=3)
        batched, reference = run_batched_and_reference(trace, protocol, page_size=512)
        assert ledger_fields(batched) == ledger_fields(reference)

    @pytest.mark.parametrize(
        "options",
        [
            {"free_local_lock_reacquire": False},
            {"piggyback_notices": False},
            {"gc_at_barriers": True},
            {"skip_overwritten_diffs": False},
            {"diff_to_invalid_copy": False},
        ],
        ids=lambda options: next(iter(options)),
    )
    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_config_ablations_bit_identical(self, water_trace, protocol, options):
        batched, reference = run_batched_and_reference(
            water_trace, protocol, page_size=1024, **options
        )
        assert ledger_fields(batched) == ledger_fields(reference)

    def test_full_sweep_grid_bit_identical(self, water_trace):
        base = SimConfig(n_procs=water_trace.n_procs)
        batched = run_sweep(water_trace, config=base)
        reference = run_sweep(water_trace, config=base.with_options(record_values=True))
        assert batched.execution_paths() == {("tape", None): len(batched.grid)}
        assert reference.execution_paths() == {
            ("per_event", "record_values"): len(reference.grid)
        }
        assert batched.grid.keys() == reference.grid.keys()
        for key in batched.grid:
            assert ledger_fields(batched.grid[key]) == ledger_fields(
                reference.grid[key]
            ), key


def assert_event_streams_identical(trace, protocol, **options):
    """A sink-watched run emits the interpreter's stream — from the tape,
    which is where a stock probe with sinks runs, and on the interpreter
    a message-logging probe or recorded values ask for. Full dict
    equality: kinds, fields, ``seq`` numbering and epochs."""
    config = SimConfig(n_procs=trace.n_procs, **options)
    tape = assert_loops_agree(trace, protocol, config, ("tape", "watched", "per_event", "recorded", "reused"))
    assert tape["events"]


class TestBatchedTelemetry:
    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_event_streams_identical(self, water_trace, protocol):
        assert_event_streams_identical(water_trace, protocol, page_size=1024)

    @pytest.mark.parametrize(
        "options",
        [
            {"piggyback_notices": False},
            {"free_local_lock_reacquire": False},
            {"gc_at_barriers": True},
        ],
        ids=lambda options: next(iter(options)),
    )
    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_event_streams_identical_under_kernel_ablations(
        self, water_trace, protocol, options
    ):
        # Each option flips a branch the tape kernels emit from: split
        # notice messages, the paid local reacquire, the gc_sweep event
        # and live retention closes.
        assert_event_streams_identical(water_trace, protocol, page_size=1024, **options)

    def test_metrics_snapshots_identical(self, water_trace):
        tape = simulate(water_trace, "LI", page_size=1024, probe=RecordingProbe())
        interpreted = interpreter_result(
            water_trace, "LI", page_size=1024, probe=RecordingProbe()
        )
        assert tape.manifest["execution_path"] == "tape"
        assert tape.metrics == interpreted.metrics


#: Cost models spanning every constant the lazy kernels price with: the
#: paper defaults, inflated per-structure sizes, and flipped accounting
#: policies (headers/control folded into data, acks free).
COST_MODELS = {
    "paper": CostModel(),
    "wide": CostModel(
        vclock_entry_bytes=16,
        write_notice_bytes=40,
        diff_run_header_bytes=24,
        word_bytes=16,
    ),
    "folded": CostModel(
        count_header_in_data=True,
        count_control_in_data=True,
        count_acks=False,
    ),
}


class TestLazyTapeCostGrid:
    """Tape replay across the cost grid (the shared-skeleton hazard).

    One skeleton serves every cost key: the kernels price its records
    live — wire bytes, notice bytes, retention — as the hooks do. These
    cases replay the *same* plan under different cost models and sync
    options, so anything cost-dependent that leaks into the shared plan
    (or a fetch planner memo), or any cost the kernels charge
    differently from the per-event hooks, shows up as a counter or
    metrics mismatch.
    """

    @pytest.mark.parametrize("free_reacquire", [True, False], ids=["free", "paid"])
    @pytest.mark.parametrize("piggyback", [True, False], ids=["piggy", "split"])
    @pytest.mark.parametrize("cost_key", sorted(COST_MODELS))
    @pytest.mark.parametrize("protocol", LAZY_PROTOCOLS)
    def test_retention_and_metrics_bit_identical(
        self, water_trace, protocol, cost_key, piggyback, free_reacquire
    ):
        base = SimConfig(
            n_procs=water_trace.n_procs,
            page_size=1024,
            cost_model=COST_MODELS[cost_key],
            piggyback_notices=piggyback,
            free_local_lock_reacquire=free_reacquire,
        )
        batched = Engine(water_trace, base, protocol, probe=RecordingProbe()).run()
        reference = interpreter_result(
            water_trace, protocol, base, probe=RecordingProbe()
        )
        # Not vacuous: the first run really replayed the tape.
        assert batched.manifest["execution_path"] == "tape"
        for counter in ("retained_diff_bytes", "peak_retained_diff_bytes"):
            assert batched.counters[counter] == reference.counters[counter], counter
        assert ledger_fields(batched) == ledger_fields(reference)
        # Per-epoch metrics rows, lock/barrier attribution included —
        # the metrics-only probe makes the tape kernels stage rows.
        assert batched.metrics == reference.metrics


def run_uncertified(trace, cls, stock):
    """A subclass run and the stock run it must match; asserts its path."""
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    assert certify_replay(cls(config)) == ("per_event", "uncertified_class")
    result = Engine(trace, config, cls).run()
    assert result.manifest["execution_path"] == "per_event"
    assert result.manifest["decline_reason"] == "uncertified_class"
    return result, Engine(trace, config, stock).run()


class TestBatchedGate:
    """The path is declared by the class and observed from the run, never set."""

    @pytest.mark.parametrize("protocol", EAGER_PROTOCOLS)
    def test_eager_family_reports_support(self, protocol):
        instance = protocol_class(protocol)(SimConfig(n_procs=4))
        assert certify_replay(instance) == ("tape", None)

    @pytest.mark.parametrize("protocol", EAGER_PROTOCOLS)
    def test_eager_family_flag_equivalence(self, water_trace, protocol):
        batched, reference = run_batched_and_reference(
            water_trace, protocol, page_size=1024
        )
        assert ledger_fields(batched) == ledger_fields(reference)

    def test_lazy_family_reports_support(self):
        for protocol in LAZY_PROTOCOLS:
            instance = protocol_class(protocol)(SimConfig(n_procs=4))
            assert certify_replay(instance) == ("tape", None), protocol

    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_certification_is_declared_in_the_class_body(self, water_trace, protocol):
        stock = protocol_class(protocol)
        assert stock.__dict__["replay_certified"] is True

        class Alias(stock):
            pass

        # Inheriting the declaration is not making it: an alias that
        # overrides nothing is still interpreted until it vouches.
        alias, result = run_uncertified(water_trace, Alias, protocol)
        assert ledger_fields(alias) == ledger_fields(result)

        class Vouched(stock):
            replay_certified = True

        assert certify_replay(Vouched(SimConfig(n_procs=4))) == ("tape", None)

    def test_eager_hook_overriding_subclass_falls_back(self, water_trace):
        from repro.protocols.eager_invalidate import EagerInvalidate

        seen = []

        class Counting(EagerInvalidate):
            def _handle_miss(self, proc, page, entry):
                seen.append((proc, page))
                super()._handle_miss(proc, page, entry)

        counted, stock = run_uncertified(water_trace, Counting, "EI")
        assert seen
        assert ledger_fields(counted) == ledger_fields(stock)

    def test_hook_overriding_subclass_falls_back(self, water_trace):
        from repro.protocols.lazy_invalidate import LazyInvalidate

        seen = []

        class Doubled(LazyInvalidate):
            def _receive(self, proc, grouped, vc_after, pull_kinds):
                seen.extend((proc, page) for page, _ in grouped)
                super()._receive(proc, grouped, vc_after, pull_kinds)

        # The engine takes the per-event path, so the override still
        # observes every notice batch and the results match stock LI.
        doubled, stock = run_uncertified(water_trace, Doubled, "LI")
        assert seen
        assert ledger_fields(doubled) == ledger_fields(stock)

    def test_public_wrapper_override_falls_back(self, water_trace):
        # Tape replay bypasses the public acquire/release/barrier
        # wrappers entirely: a subclass adding behavior there must run
        # per event or its override would be silently skipped.
        from repro.protocols.lazy_invalidate import LazyInvalidate

        seen = []

        class Wrapped(LazyInvalidate):
            def acquire(self, proc, lock):
                seen.append((proc, lock))
                super().acquire(proc, lock)

        wrapped, stock = run_uncertified(water_trace, Wrapped, "LI")
        assert seen
        assert ledger_fields(wrapped) == ledger_fields(stock)

    def test_record_values_forces_per_event(self, water_trace):
        # The tape replay cannot record read values (it keeps no page
        # contents); the gate must route around it.
        config = SimConfig(
            n_procs=water_trace.n_procs, page_size=1024, record_values=True
        )
        result = Engine(water_trace, config, "LI").run()
        assert result.read_values  # per-event path ran and recorded


class TestFinishedProtocolsAreFreedByReferenceCounting:
    """Binding a plan stores no bound method of the protocol on the
    protocol, so a finished tape run is not cyclic garbage: it goes when
    its engine does, not at the next full collection."""

    @pytest.mark.parametrize(
        "make_probe", [None, RecordingProbe, SpanProbe], ids=["bare", "metrics", "spans"]
    )
    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_protocol_dies_with_its_engine(self, water_trace, protocol, make_probe):
        config = SimConfig(n_procs=water_trace.n_procs, page_size=1024)
        gc.collect()
        gc.disable()
        try:
            probe = make_probe() if make_probe else None
            engine = Engine(water_trace, config, protocol, probe=probe)
            result = engine.run()
            assert result.manifest["execution_path"] == "tape"
            if probe is not None:
                probe.close()
            protocol_ref = weakref.ref(engine.protocol)
            del engine, result
            assert protocol_ref() is None
        finally:
            gc.enable()


class TestValueTrackingLivesOnOnePath:
    """Page contents are the value path's job, never the tape replay's."""

    @staticmethod
    def handoff_trace():
        # p1 then p2 write word 0 (p2 also word 16) under one lock; after
        # a barrier every processor reads both words back.
        n_procs = 3
        events = [
            Event.acquire(1, 0),
            Event.write(1, 0x0),
            Event.release(1, 0),
            Event.acquire(2, 0),
            Event.write(2, 0x0),
            Event.write(2, 0x40),
            Event.release(2, 0),
        ]
        events += [Event.at_barrier(proc, 0) for proc in range(n_procs)]
        events += [Event.read(proc, 0x0, 0x44) for proc in range(n_procs)]
        return build_trace(n_procs, events), n_procs

    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_value_path_keeps_contents_and_passes_the_checker(self, protocol):
        from repro.analysis.checker import check_protocol

        trace, n_procs = self.handoff_trace()
        config = SimConfig(n_procs=n_procs, page_size=1024, record_values=True)
        engine = Engine(trace, config, protocol)
        result = engine.run()
        assert result.manifest["execution_path"] == "per_event"
        assert result.manifest["decline_reason"] == "record_values"
        # Write tokens are event sequence numbers: p2's two writes.
        for proc in range(n_procs):
            page = engine.protocol.entry(proc, 0).page
            assert (page.read(0), page.read(16)) == (4, 5), proc
        report = check_protocol(trace, protocol, page_size=1024)
        assert report.ok and report.reads_checked == 17 * n_procs

    @pytest.mark.parametrize("protocol", ALL_BATCHED)
    def test_batched_replay_leaves_contents_untouched(self, protocol):
        # A fresh trace, so a lazy cell has no kept priced tape to fold:
        # its kernels run over page tables whose contents stay empty.
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)
        engine = Engine(trace, config, protocol)
        result = engine.run()
        assert result.manifest["execution_path"] == "tape"
        assert result.messages > 0
        procs = engine.protocol.procs
        if protocol_class(protocol).lazy:
            assert "record" not in result.manifest  # the kernels ran
            assert len(procs) == trace.n_procs
            assert any(len(state.pages) for state in procs)
        for state in procs:
            for entry in state.pages:
                assert not entry.page.words
                assert not entry.dirty_words
            assert not state.pages._dirty


class TestBatchedEdgeTraces:
    def test_sync_only_trace(self):
        # Every interval is empty (IntervalStore.add_empty path).
        events = []
        for proc in range(3):
            events += [Event.acquire(proc, 0), Event.release(proc, 0)]
        events += [Event.at_barrier(proc, 0) for proc in range(3)]
        trace = build_trace(3, events)
        for protocol in ALL_BATCHED:
            batched, reference = run_batched_and_reference(
                trace, protocol, page_size=512
            )
            assert ledger_fields(batched) == ledger_fields(reference)

    def test_no_sync_trace(self):
        # No sync operations at all: nothing ever closes, nothing is
        # exchanged, and the tape replay consumes zero sync records.
        events = [Event.write(0, 64), Event.read(1, 64), Event.write(1, 128)]
        trace = build_trace(2, events)
        for protocol in ALL_BATCHED:
            batched, reference = run_batched_and_reference(
                trace, protocol, page_size=512
            )
            assert ledger_fields(batched) == ledger_fields(reference)

    def test_page_straddling_writes(self):
        events = [
            Event.acquire(0, 0),
            Event.write(0, 500, 1050),  # crosses three page boundaries at 512
            Event.release(0, 0),
            Event.acquire(1, 0),
            Event.read(1, 508, 8),
            Event.write(1, 1020, 8),
            Event.release(1, 0),
        ]
        trace = build_trace(2, events)
        for protocol in ALL_BATCHED:
            batched, reference = run_batched_and_reference(
                trace, protocol, page_size=512
            )
            assert ledger_fields(batched) == ledger_fields(reference)

    def test_run_once_guard_still_enforced(self, water_trace):
        from repro.common.errors import SimulatorError

        engine = Engine(water_trace, SimConfig(n_procs=water_trace.n_procs), "LI")
        engine.run()
        with pytest.raises(SimulatorError):
            engine.run()


def excess_invalidator_trace():
    """False sharing driving EI through its reconcile path.

    p1 writes page 0 and is then invalidated by p0's flush while still
    holding unflushed modifications; p2 re-fetches afterwards, so p1's
    eventual flush must ship its diff to the owner (p0) *and* invalidate
    the late reader (p2) — the paper's excess-invalidator ``v`` term.
    """
    events = [
        Event.acquire(0, 0),
        Event.write(0, 0),
        Event.release(0, 0),  # p0 becomes owner of page 0
        Event.write(1, 8),  # p1 caches page 0, holds dirty words
        Event.read(2, 16),  # p2 caches page 0
        Event.acquire(0, 0),
        Event.write(0, 0),
        Event.release(0, 0),  # invalidates p1 (still dirty) and p2
        Event.read(2, 16),  # p2 re-fetches: a post-invalidation cacher
        Event.acquire(1, 0),
        Event.release(1, 0),  # p1's flush: reconcile + excess notices
        Event.at_barrier(0, 0),
        Event.at_barrier(1, 0),
        Event.at_barrier(2, 0),
    ]
    return build_trace(3, events)


def ping_pong_trace(rounds: int = 4):
    """Two writers alternating on one falsely shared page (§4.3.1)."""
    events = []
    for _ in range(rounds):
        events += [Event.write(0, 0), Event.write(1, 8)]
    events += [Event.at_barrier(0, 0), Event.at_barrier(1, 0)]
    return build_trace(2, events)


def multi_page_flush_trace():
    """One release flushing several dirty pages to several cachers."""
    events = [
        # Everyone caches pages 0 and 1 (page_size=512: addrs 0 / 512).
        Event.read(1, 0),
        Event.read(1, 512),
        Event.read(2, 0),
        Event.read(2, 512),
        Event.acquire(0, 0),
        Event.write(0, 0),
        Event.write(0, 16),
        Event.write(0, 512),
        Event.release(0, 0),  # merged two-diff fan-out to p1 and p2
        Event.at_barrier(0, 0),
        Event.at_barrier(1, 0),
        Event.at_barrier(2, 0),
    ]
    return build_trace(3, events)


class TestEagerHandTraces:
    """The eager-specific corner cases the app traces may not hit."""

    def test_excess_invalidator_reconciles(self):
        trace = excess_invalidator_trace()
        batched, reference = run_batched_and_reference(trace, "EI", page_size=512)
        # The trace actually exercises the path it was built for.
        assert reference.counters["reconciles"] > 0
        assert reference.invalid_misses > 0
        assert ledger_fields(batched) == ledger_fields(reference)

    def test_ew_ping_pong(self):
        trace = ping_pong_trace()
        batched, reference = run_batched_and_reference(trace, "EW", page_size=512)
        assert reference.counters["write_faults"] > 0
        assert reference.counters["ping_pongs"] > 0
        assert ledger_fields(batched) == ledger_fields(reference)

    @pytest.mark.parametrize("protocol", EAGER_PROTOCOLS)
    def test_multi_page_flush(self, protocol):
        trace = multi_page_flush_trace()
        batched, reference = run_batched_and_reference(trace, protocol, page_size=512)
        assert ledger_fields(batched) == ledger_fields(reference)

    @pytest.mark.parametrize("protocol", EAGER_PROTOCOLS)
    @pytest.mark.parametrize(
        "make_trace",
        [excess_invalidator_trace, ping_pong_trace, multi_page_flush_trace],
        ids=["excess", "pingpong", "multipage"],
    )
    def test_telemetry_streams_identical(self, protocol, make_trace):
        assert_event_streams_identical(make_trace(), protocol, page_size=512)
