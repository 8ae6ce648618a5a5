"""Fast-path / parallel-sweep equivalence against the reference engine.

The acceptance bar for the simulation-core overhaul: every
:class:`~repro.simulator.results.SimulationResult` field produced by the
precompiled fast path (and by a parallel sweep) must be bit-identical to
the original event-by-event interpreter, which survives as the test
oracle's ``ReferenceEngine`` (``tests/reference_oracle.py``).
"""

from __future__ import annotations

import pytest

from repro.apps.synthetic import migratory, producer_consumer
from repro.common.errors import ConfigError, SimulatorError
from repro.config import SimConfig
from repro.network.link import LinkModel
from repro.protocols.registry import all_protocol_names, protocol_class
from repro.simulator.engine import Engine, simulate
from repro.simulator.results import SimulationResult
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from repro.trace.precompile import (
    OP_ACQUIRE,
    OP_READ,
    OP_READ_N,
    OP_WRITE,
    compile_trace,
)
from tests.conftest import (
    BARE_LOOPS,
    assert_loops_agree,
    build_trace,
    ledger_fields,
    lock_chain_trace,
    run_loop,
    small_trace,
    straddling_trace,
)
from tests.reference_oracle import ReferenceEngine, ReferenceScans, ReferenceStore

PROTOCOLS = ("LI", "LU", "EI", "EU")


def result_fields(result: SimulationResult) -> dict:
    """Every accounting field of one result plus the values every read saw."""
    return {**ledger_fields(result), "read_values": result.read_values}


class TestFastPathEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("page_size", [512, 2048])
    def test_water_bit_identical(self, water_trace, protocol, page_size):
        config = SimConfig(
            n_procs=water_trace.n_procs, page_size=page_size, record_values=True
        )
        fast = Engine(water_trace, config, protocol).run()
        reference = ReferenceEngine(water_trace, config, protocol).run()
        assert result_fields(fast) == result_fields(reference)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_lock_chain_bit_identical(self, protocol):
        trace = lock_chain_trace(n_procs=4, rounds=3)
        config = SimConfig(n_procs=4, page_size=512, record_values=True)
        fast = Engine(trace, config, protocol).run()
        reference = ReferenceEngine(trace, config, protocol).run()
        assert result_fields(fast) == result_fields(reference)

    def test_page_straddling_accesses_bit_identical(self):
        # Accesses crossing one and several page boundaries exercise the
        # OP_READ_N/OP_WRITE_N multi-chunk instructions.
        trace = straddling_trace(barrier=False)
        config = SimConfig(n_procs=2, page_size=512, record_values=True)
        for protocol in PROTOCOLS:
            fast = Engine(trace, config, protocol).run()
            reference = ReferenceEngine(trace, config, protocol).run()
            assert result_fields(fast) == result_fields(reference), protocol


#: Every protocol built on LazyProtocol (the coherence index lives there).
LAZY_PROTOCOLS = ("LI", "LU", "LH", "HLRC")


def run_indexed_and_reference(trace, protocol, **overrides):
    """``run()`` (coherence index) and the oracle (reference scans), same cell."""
    config = SimConfig(n_procs=trace.n_procs, record_values=True, **overrides)
    indexed = Engine(trace, config, protocol)
    reference = ReferenceEngine(trace, config, protocol)
    results = indexed.run(), reference.run()
    # Not vacuous: run() read the index through its planner, and the
    # oracle's scans ran over a ReferenceStore with no planner at all.
    ran, oracle = indexed.protocol, reference.protocol
    assert type(ran.store) is not ReferenceStore and ran._planner._store is ran.store
    assert isinstance(oracle, ReferenceScans) and type(oracle.store) is ReferenceStore
    assert not hasattr(oracle, "_planner")
    assert results[1].manifest["execution_path"] == "reference"
    return results


class TestCoherenceIndexEquivalence:
    """Indexed lazy bookkeeping is bit-identical to the reference scans.

    ``ReferenceEngine`` keeps the original full-scan implementations of
    notice gaps, diff-server assignment, overwrite pruning, and garbage
    collection; these tests pin the indexed ``run()`` to it
    field-by-field.
    """

    @pytest.mark.parametrize("protocol", LAZY_PROTOCOLS)
    def test_app_traces_bit_identical(self, app_trace, protocol):
        indexed, reference = run_indexed_and_reference(
            app_trace, protocol, page_size=1024
        )
        assert result_fields(indexed) == result_fields(reference)

    @pytest.mark.parametrize("protocol", LAZY_PROTOCOLS)
    def test_page_straddling_trace_bit_identical(self, protocol):
        indexed, reference = run_indexed_and_reference(straddling_trace(), protocol, page_size=512)
        assert result_fields(indexed) == result_fields(reference)

    def test_full_sweep_grid_identical(self, water_trace):
        config = SimConfig(n_procs=water_trace.n_procs, record_values=True)
        indexed = run_sweep(water_trace, config=config)
        for (protocol, page_size), cell in indexed.grid.items():
            reference = ReferenceEngine(
                water_trace, config.with_page_size(page_size), protocol
            ).run()
            assert result_fields(cell) == result_fields(reference), (protocol, page_size)

    @pytest.mark.parametrize("protocol", LAZY_PROTOCOLS)
    def test_gc_accounting_bit_identical(self, water_trace, protocol):
        # gc_at_barriers exercises _collect_garbage (indexed: per-page
        # dominator fold over _live_by_page; oracle: _live_diffs scan)
        # and the retained/collected byte counters it maintains.
        indexed, reference = run_indexed_and_reference(
            water_trace, protocol, page_size=1024, gc_at_barriers=True
        )
        assert result_fields(indexed) == result_fields(reference)
        for counter in (
            "retained_diff_bytes",
            "peak_retained_diff_bytes",
            "gc_collected_bytes",
            "gc_runs",
        ):
            assert indexed.counters[counter] == reference.counters[counter], counter
        assert indexed.counters["gc_runs"] > 0

    @pytest.mark.parametrize("protocol", ("LI", "LU"))
    def test_gc_collects_on_lock_chain(self, protocol):
        # A barrier after a lock chain lets every proc's covered diffs go;
        # both paths must agree on how many bytes that frees.
        events = []
        for rounds in range(3):
            for proc in range(4):
                events += [
                    Event.acquire(proc, 0),
                    Event.write(proc, 0x100 + 8 * proc, 8),
                    Event.release(proc, 0),
                ]
            events += [Event.at_barrier(p, rounds) for p in range(4)]
        trace = build_trace(4, events)
        indexed, reference = run_indexed_and_reference(
            trace, protocol, page_size=512, gc_at_barriers=True
        )
        assert result_fields(indexed) == result_fields(reference)
        assert indexed.counters["gc_collected_bytes"] == (
            reference.counters["gc_collected_bytes"]
        )
        assert indexed.counters["gc_collected_bytes"] > 0


class TestOneReceivePath:
    """Every loop hands each notice batch to the same ``_receive``, with
    the same ``(page, interval ids)`` batches, clocks and pull kinds."""

    @pytest.mark.parametrize("protocol", LAZY_PROTOCOLS)
    def test_every_loop_calls_receive_alike(self, protocol):
        class Spy(protocol_class(protocol)):
            replay_certified = True

            def __init__(self, config):
                super().__init__(config)
                self.calls = []

            def _receive(self, proc, grouped, vc_after, pull_kinds):
                self.calls.append((proc, grouped, vc_after.entries(), pull_kinds))
                super()._receive(proc, grouped, vc_after, pull_kinds)

        trace = small_trace("water", 4)
        config = SimConfig(n_procs=4, page_size=1024)
        calls = {}
        for loop, overrides in (
            ("tape", {}),
            ("per_event", {"record_values": True}),
            ("reference", {}),
        ):
            engine_class = ReferenceEngine if loop == "reference" else Engine
            engine = engine_class(trace, config.with_options(**overrides), Spy)
            result = engine.run()
            assert result.manifest["execution_path"] == loop
            calls[loop] = engine.protocol.calls
        assert calls["tape"]
        assert calls["per_event"] == calls["tape"]
        assert calls["reference"] == calls["tape"]


class TestPlansAreSizedByTheConfig:
    """The protocol is sized by ``config.n_procs``, which may exceed the
    trace's; plans and tapes built for the trace's count diverged from
    the interpreter (vector-clock width, barrier fan-in)."""

    @pytest.mark.parametrize("n_procs", [4, 7])
    @pytest.mark.parametrize("protocol", all_protocol_names())
    def test_lock_only_trace_same_ledger_on_every_path(self, protocol, n_procs):
        trace = migratory(n_procs=4)
        config = SimConfig(n_procs=n_procs, page_size=1024)
        tape = assert_loops_agree(trace, protocol, config, BARE_LOOPS, make_probe=None)
        assert tape["fields"]["messages"] > 0

    @pytest.mark.parametrize("protocol", all_protocol_names())
    def test_barrier_trace_fails_alike_on_every_path(self, protocol):
        # Four of seven processors can never complete a barrier episode,
        # so the trace's second one is refused before any loop starts.
        trace = producer_consumer(n_procs=4)
        config = SimConfig(n_procs=7, page_size=1024)
        for loop in BARE_LOOPS:
            with pytest.raises(
                ConfigError, match="trace uses 4 processors but config simulates 7"
            ):
                run_loop(trace, protocol, config, loop)


class TestOracle:
    def test_reference_is_counting_only(self, water_trace):
        config = SimConfig(n_procs=water_trace.n_procs, link_model=LinkModel.ideal())
        with pytest.raises(ConfigError, match="counting-only"):
            ReferenceEngine(water_trace, config, "LI").run()


class TestParallelSweepEquivalence:
    def test_lock_chain_grid_identical(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        serial = run_sweep(trace, page_sizes=[512, 1024])
        parallel = run_sweep(trace, page_sizes=[512, 1024], jobs=2)
        assert list(serial.grid) == list(parallel.grid)
        for key in serial.grid:
            assert result_fields(serial.grid[key]) == result_fields(
                parallel.grid[key]
            ), key

    @pytest.mark.tier2
    def test_water_full_grid_identical(self, water_trace):
        serial = run_sweep(water_trace)
        parallel = run_sweep(water_trace, jobs=4)
        assert list(serial.grid) == list(parallel.grid)
        for key in serial.grid:
            assert result_fields(serial.grid[key]) == result_fields(
                parallel.grid[key]
            ), key

    def test_jobs_one_is_serial(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        sweep = run_sweep(trace, page_sizes=[512], jobs=1)
        assert set(sweep.grid) == {(p, 512) for p in PROTOCOLS}


class TestRunOnceGuard:
    def test_second_run_raises(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        engine = Engine(trace, SimConfig(n_procs=3, page_size=512), "LI")
        engine.run()
        with pytest.raises(SimulatorError, match="only be called once"):
            engine.run()

    def test_reference_path_shares_the_guard(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        engine = ReferenceEngine(trace, SimConfig(n_procs=3, page_size=512), "LI")
        engine.run()
        with pytest.raises(SimulatorError):
            engine.run()

    def test_simulate_builds_a_fresh_engine_per_call(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        a = simulate(trace, "LI", page_size=512)
        b = simulate(trace, "LI", page_size=512)
        assert a.messages == b.messages


class TestPrecompile:
    def test_single_page_accesses_use_flat_ops(self):
        trace = build_trace(
            2, [Event.acquire(0, 0), Event.read(0, 0x10, 8), Event.write(0, 0x10, 4)]
        )
        compiled = compile_trace(trace, 512)
        assert [op[0] for op in compiled.ops] == [OP_ACQUIRE, OP_READ, OP_WRITE]
        # No seq field: the op's position (1) is its event's seq.
        assert compiled.ops[1][1:] == (0, 0, (4, 5))

    def test_straddling_access_compiles_to_chunk_list(self):
        trace = build_trace(1, [Event.read(0, 508, 8)])
        compiled = compile_trace(trace, 512)
        assert compiled.ops[0][0] == OP_READ_N
        assert compiled.ops[0][2] == ((0, (127,)), (1, (0,)))

    def test_stream_memoizes_until_mutation(self):
        trace = lock_chain_trace(n_procs=2, rounds=1)
        first = trace.compiled(512)
        assert trace.compiled(512) is first
        assert trace.compiled(1024) is not first
        trace.append(Event.read(0, 0x100))
        rebuilt = trace.compiled(512)
        assert rebuilt is not first
        assert len(rebuilt.ops) == len(first.ops) + 1

    def test_engine_rejects_mismatched_compiled_page_size(self):
        trace = lock_chain_trace(n_procs=2, rounds=1)
        compiled = compile_trace(trace, 1024)
        with pytest.raises(ValueError, match="specialized for 1024"):
            Engine(trace, SimConfig(n_procs=2, page_size=512), "LI", compiled=compiled)

    def test_identical_app_results_at_every_paper_size(self, app_trace):
        # One spot value per app keeps this fast; the full-field checks
        # above cover the deep comparison.
        for page_size in (512, 8192):
            config = SimConfig(n_procs=app_trace.n_procs, page_size=page_size)
            fast = Engine(app_trace, config, "LI").run()
            reference = ReferenceEngine(app_trace, config, "LI").run()
            assert (fast.messages, fast.data_bytes) == (
                reference.messages,
                reference.data_bytes,
            )
