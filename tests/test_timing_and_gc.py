"""Tests for the runtime-cost model and the lazy diff garbage collector."""

import pytest

from repro.analysis.checker import check_protocol
from repro.analysis.timing_report import (
    TimingEstimate,
    compare_runtimes,
    estimate_runtime,
)
from repro.config import SimConfig
from repro.network.link import LinkModel
from repro.simulator.engine import simulate
from tests.conftest import small_trace

ETHERNET = (LinkModel.ethernet_1992(), "ethernet_1992")
MODERN = (LinkModel.modern_cluster(), "modern_cluster")


class TestTimingModel:
    def test_presets_are_distinct(self):
        result = simulate(small_trace("mp3d", n_procs=4), "LI", page_size=1024)
        slow = estimate_runtime(result, *ETHERNET)
        fast = estimate_runtime(result, *MODERN)
        assert slow.message_seconds > 100 * fast.message_seconds

    def test_estimate_components(self):
        trace = small_trace("mp3d", n_procs=4)
        result = simulate(trace, "LI", page_size=1024)
        estimate = estimate_runtime(result, *ETHERNET)
        assert isinstance(estimate, TimingEstimate)
        assert estimate.total_seconds == pytest.approx(
            sum(estimate.breakdown().values())
        )
        assert estimate.message_seconds == result.messages * 1e-3
        assert estimate.bookkeeping_seconds > 0  # lazy pays interval costs

    @pytest.mark.parametrize(
        "protocol, model, expected",
        [
            ("LI", ETHERNET, dict(messages=0.139, bytes=0.0092, diffs=0.0497, bookkeeping=0.0027)),
            ("LI", MODERN, dict(messages=6.95e-4, bytes=1.15e-6, diffs=2.13e-4, bookkeeping=1.08e-5)),
            ("EI", ETHERNET, dict(messages=0.265, bytes=0.0377248, diffs=0.0135, bookkeeping=0.0)),
            ("EI", MODERN, dict(messages=1.325e-3, bytes=4.7156e-6, diffs=5.4e-5, bookkeeping=0.0)),
        ],
        ids=["LI-1992", "LI-modern", "EI-1992", "EI-modern"],
    )
    def test_preset_estimates_match_the_retired_timing_model(self, protocol, model, expected):
        """Values the ``TimingModel`` presets gave before the class was
        deleted: the port to ``LinkModel`` + preset name moved none."""
        result = simulate(small_trace("mp3d", n_procs=4), protocol, page_size=1024)
        assert estimate_runtime(result, *model).breakdown() == pytest.approx(expected, rel=1e-12)

    def test_link_supplies_wire_constants_preset_the_cpu_ones(self):
        result = simulate(small_trace("mp3d", n_procs=4), "LI", page_size=1024)
        link = LinkModel(latency_s=1e-4, bandwidth=1e7, overhead_s=2e-4)
        estimate = estimate_runtime(result, link)
        assert estimate.message_seconds == pytest.approx(result.messages * 3e-4)
        assert estimate.byte_seconds == pytest.approx(
            (result.data_bytes + result.control_bytes) * 1e-7
        )
        assert estimate.diff_seconds == estimate_runtime(result, *ETHERNET).diff_seconds

    def test_eager_has_no_bookkeeping_term(self):
        trace = small_trace("mp3d", n_procs=4)
        result = simulate(trace, "EI", page_size=1024)
        estimate = estimate_runtime(result, *ETHERNET)
        assert estimate.bookkeeping_seconds == 0

    def test_message_dominated_model_preserves_message_ranking(self):
        """With per-message cost dominant, estimated time ranks like
        message counts — the paper's premise that messages are the cost."""
        trace = small_trace("locusroute", n_procs=4)
        results = {p: simulate(trace, p, page_size=2048) for p in ("LI", "EU")}
        # One second per message, free bytes; the modern preset's CPU
        # constants are microseconds.
        estimates = compare_runtimes(results, LinkModel(overhead_s=1.0), "modern_cluster")
        assert (estimates["LI"].total_seconds < estimates["EU"].total_seconds) == (
            results["LI"].messages < results["EU"].messages
        )

    def test_format(self):
        trace = small_trace("water", n_procs=2)
        result = simulate(trace, "LU", page_size=512)
        text = estimate_runtime(result, *ETHERNET).format()
        assert "LU" in text and "messages=" in text


class TestGarbageCollection:
    def test_gc_reduces_peak_retention(self):
        trace = small_trace("mp3d", n_procs=8)
        off = simulate(trace, "LI", page_size=1024)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        assert on.counters["gc_runs"] > 0
        assert on.counters["gc_collected_bytes"] > 0
        assert (
            on.counters["peak_retained_diff_bytes"]
            < off.counters["peak_retained_diff_bytes"]
        )

    def test_gc_never_changes_traffic(self):
        trace = small_trace("water", n_procs=4)
        for protocol in ("LI", "LU"):
            off = simulate(trace, protocol, page_size=512)
            on = simulate(trace, protocol, page_size=512, gc_at_barriers=True)
            assert on.messages == off.messages
            assert on.data_bytes == off.data_bytes

    @pytest.mark.parametrize("protocol", ["LI", "LU"])
    def test_gc_runs_stay_consistent(self, protocol):
        trace = small_trace("mp3d", n_procs=4)
        config = SimConfig(n_procs=4, gc_at_barriers=True)
        report = check_protocol(trace, protocol, page_size=512, config=config)
        assert report.ok

    def test_retention_accounting_balances(self):
        trace = small_trace("mp3d", n_procs=4)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        retained = on.counters["retained_diff_bytes"]
        collected = on.counters["gc_collected_bytes"]
        assert retained >= 0
        # Created = still retained + collected.
        off = simulate(trace, "LI", page_size=1024)
        assert retained + collected == off.counters["retained_diff_bytes"]

    def test_no_barriers_no_gc(self):
        trace = small_trace("cholesky", n_procs=4)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        assert on.counters["gc_runs"] == 0
