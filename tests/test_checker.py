"""Tests for the consistency checker — including that it catches bugs."""

import pytest

from repro.analysis.checker import check_consistency, check_protocol
from repro.common.errors import ConsistencyViolation
from repro.config import SimConfig
from repro.protocols.registry import protocol_class
from repro.simulator.engine import Engine, simulate
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace


class TestCheckerBasics:
    def test_requires_recorded_values(self):
        trace = lock_chain_trace()
        result = simulate(trace, "LI", page_size=512)
        with pytest.raises(ValueError):
            check_consistency(trace, result)

    def test_clean_run_passes(self):
        trace = lock_chain_trace(n_procs=3, rounds=3)
        result = simulate(trace, "LI", page_size=512, record_values=True)
        report = check_consistency(trace, result)
        assert report.ok and report.reads_checked > 0

    def test_check_protocol_wrapper(self):
        trace = lock_chain_trace()
        report = check_protocol(trace, "EU", page_size=512)
        assert report.ok

    def test_initial_zero_reads_validate(self):
        trace = build_trace(1, [Event.read(0, 0x0)])
        result = simulate(trace, "LI", page_size=512, record_values=True)
        report = check_consistency(trace, result)
        assert report.ok and report.reads_checked == 1


class TestCheckerCatchesBugs:
    def test_stale_value_detected(self):
        """Corrupting one observed value must produce a violation."""
        trace = lock_chain_trace(n_procs=3, rounds=2)
        result = simulate(trace, "LI", page_size=512, record_values=True)
        # Find a read that observed a non-zero token and corrupt it.
        for index, (seq, values) in enumerate(result.read_values):
            if values and values[0] != 0:
                result.read_values[index] = (seq, [values[0] + 1])
                break
        report = check_consistency(trace, result)
        assert not report.ok
        with pytest.raises(ConsistencyViolation):
            report.raise_on_failure()

    @pytest.mark.parametrize("trace_name", ["lock_chain", "water"])
    @pytest.mark.parametrize("protocol", ["LI", "LU", "LH", "HLRC"])
    def test_broken_protocol_detected(self, protocol, trace_name):
        """A notice policy that drops every batch but merges the clock
        returns stale reads, and Definition 1 says so; the stock policy
        passes. ``_receive`` is the one policy every loop calls."""
        stock = protocol_class(protocol)

        class Broken(stock):
            name = "BROKEN"

            def _receive(self, proc, grouped, vc_after, pull_kinds):
                self.lazy_state[proc].vc = vc_after

        if trace_name == "water":
            trace, page_size = small_trace("water", 4), 1024
        else:
            trace, page_size = lock_chain_trace(n_procs=3, rounds=2), 512
        config = SimConfig(n_procs=trace.n_procs, page_size=page_size, record_values=True)
        assert check_consistency(trace, Engine(trace, config, stock).run()).ok
        report = check_consistency(trace, Engine(trace, config, Broken).run())
        assert not report.ok

    def test_racy_reads_skipped_not_flagged(self):
        trace = build_trace(
            2,
            [
                Event.write(0, 0x0),
                Event.write(1, 0x0),  # race
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),
                Event.read(0, 0x0),  # both writes hb-before: ambiguous
            ],
        )
        result = simulate(trace, "LI", page_size=512, record_values=True)
        report = check_consistency(trace, result)
        assert report.ok
        assert report.reads_racy >= 1


class TestCheckerOnProtocols:
    @pytest.mark.parametrize("protocol", ["LI", "LU", "EI", "EU"])
    @pytest.mark.parametrize("page_size", [256, 4096])
    def test_all_protocols_consistent_on_apps(self, app_trace, protocol, page_size):
        report = check_protocol(app_trace, protocol, page_size=page_size)
        assert report.ok
        assert report.reads_racy == 0

    @pytest.mark.parametrize("protocol", ["LI", "LU", "EI", "EU"])
    def test_ablation_configs_stay_consistent(self, water_trace, protocol):
        for options in (
            dict(diff_to_invalid_copy=False),
            dict(skip_overwritten_diffs=False),
            dict(piggyback_notices=False),
            dict(free_local_lock_reacquire=False),
        ):
            config = SimConfig(n_procs=water_trace.n_procs, **options)
            report = check_protocol(water_trace, protocol, page_size=512, config=config)
            assert report.ok, (protocol, options)
