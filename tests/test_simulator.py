"""Unit tests for the engine, config, sweeps, and the analytical cost model."""

import pytest

from repro.analysis.report import format_figure_table
from repro.common.errors import ConfigError
from repro.config import PAPER_N_PROCS, PAPER_PAGE_SIZES, SimConfig
from repro.protocols.registry import PROTOCOLS, protocol_class, protocol_names
from repro.simulator.costs import CostConventions
from repro.simulator.engine import Engine, simulate
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from repro.trace.precompile import split_access
from tests.conftest import build_trace, lock_chain_trace


class TestConfig:
    def test_defaults_match_paper(self):
        config = SimConfig()
        assert config.n_procs == PAPER_N_PROCS == 16
        assert PAPER_PAGE_SIZES == (512, 1024, 2048, 4096, 8192)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(n_procs=0)
        with pytest.raises(ConfigError):
            SimConfig(page_size=1000)
        with pytest.raises(ConfigError):
            SimConfig(page_size=4)

    def test_with_page_size(self):
        config = SimConfig(page_size=512)
        assert config.with_page_size(8192).page_size == 8192
        assert config.page_size == 512  # immutable

    def test_with_options(self):
        config = SimConfig().with_options(record_values=True, n_procs=4)
        assert config.record_values and config.n_procs == 4


class TestRegistry:
    def test_canonical_names(self):
        assert protocol_names() == ["LI", "LU", "EI", "EU"]

    def test_aliases_and_case(self):
        assert protocol_class("lazy-invalidate") is PROTOCOLS["LI"]
        assert protocol_class("eu") is PROTOCOLS["EU"]

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            protocol_class("MSI")

    def test_flags(self):
        assert PROTOCOLS["LI"].lazy and not PROTOCOLS["LI"].update
        assert PROTOCOLS["LU"].lazy and PROTOCOLS["LU"].update
        assert not PROTOCOLS["EI"].lazy and not PROTOCOLS["EI"].update
        assert not PROTOCOLS["EU"].lazy and PROTOCOLS["EU"].update


class TestSplitAccess:
    def test_within_one_page(self):
        assert split_access(0, 8, 512) == ((0, (0, 1)),)

    def test_straddles_pages(self):
        chunks = split_access(508, 8, 512)
        assert chunks == ((0, (127,)), (1, (0,)))

    def test_spans_many_pages(self):
        chunks = split_access(500, 1050, 512)
        # Bytes [500, 1550) touch pages 0..3.
        assert [page for page, _ in chunks] == [0, 1, 2, 3]
        assert chunks[0][1] == (125, 126, 127)
        assert len(chunks[1][1]) == 128
        assert chunks[3][1] == tuple(range(0, 4))

    def test_unaligned_word(self):
        assert split_access(6, 4, 512) == ((0, (1, 2)),)

    def test_repeated_pairs_share_cached_tuples(self):
        # Given a cache, the (addr, size) split returns the same
        # immutable chunk tuple for repeated accesses — the common case
        # in real traces.
        cache = {}
        first = split_access(0x40, 8, 512, cache)
        second = split_access(0x40, 8, 512, cache)
        assert first == second
        assert first[0][1] is second[0][1]


class TestEngine:
    def test_trace_procs_must_fit(self):
        trace = lock_chain_trace(n_procs=4)
        with pytest.raises(ConfigError, match="trace uses 4 processors but config allows 2"):
            Engine(trace, SimConfig(n_procs=2, page_size=512), "LI")

    @pytest.mark.parametrize("protocol", ["LI", "EU"])
    def test_extra_procs_never_complete_a_reentered_barrier(self, protocol):
        # Two barrier episodes of a 4-processor trace under 5 simulated
        # processors: the first never completes, so p3's second arrival
        # used to die inside BarrierMaster ("p3 arrived twice at barrier 0").
        events = [Event.at_barrier(p, 0) for p in range(4)] * 2
        trace = build_trace(4, events)
        with pytest.raises(
            ConfigError,
            match="trace uses 4 processors but config simulates 5: barrier 0 is re-entered",
        ):
            Engine(trace, SimConfig(n_procs=5, page_size=512), protocol)
        # One episode per barrier id never needs the missing processor to
        # arrive: such a trace still replays (the episode stays open).
        once = build_trace(4, events[:4])
        assert Engine(once, SimConfig(n_procs=5, page_size=512), protocol).run().messages >= 0

    def test_simulate_with_overrides(self):
        trace = lock_chain_trace()
        result = simulate(trace, "LI", page_size=512, record_values=True)
        assert result.page_size == 512
        assert result.read_values is not None

    def test_result_fields(self):
        trace = lock_chain_trace()
        result = simulate(trace, "LI", page_size=512)
        assert result.app == "hand"
        assert result.protocol == "LI"
        assert result.events == len(trace)
        assert result.misses == result.cold_misses + result.invalid_misses
        assert "intervals_closed" in result.counters

    def test_to_dict_json_friendly(self):
        import json

        trace = lock_chain_trace()
        result = simulate(trace, "EU", page_size=512)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["protocol"] == "EU"
        assert payload["messages"] == result.messages

    def test_summary_row_contains_key_numbers(self):
        trace = lock_chain_trace()
        result = simulate(trace, "EI", page_size=512)
        row = result.summary_row()
        assert "EI" in row and str(result.messages) in row

    def test_identical_runs_identical_results(self):
        trace = lock_chain_trace(n_procs=4, rounds=3)
        a = simulate(trace, "LI", page_size=512)
        b = simulate(trace, "LI", page_size=512)
        assert a.messages == b.messages
        assert a.data_bytes == b.data_bytes


class TestSweep:
    def test_grid_complete(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        sweep = run_sweep(trace, page_sizes=[512, 1024])
        assert set(sweep.grid) == {
            (p, s) for p in ("LI", "LU", "EI", "EU") for s in (512, 1024)
        }

    def test_series_align_with_grid(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        sweep = run_sweep(trace, protocols=["LI", "EI"], page_sizes=[512, 1024])
        assert sweep.message_series("LI") == [
            sweep.grid[("LI", 512)].messages,
            sweep.grid[("LI", 1024)].messages,
        ]
        assert sweep.data_series("EI")[1] == sweep.grid[("EI", 1024)].data_kbytes

    def test_format_table(self):
        trace = lock_chain_trace(n_procs=3, rounds=2)
        sweep = run_sweep(trace, page_sizes=[512])
        text = format_figure_table(sweep, "Figure 5", "messages")
        assert "512" in text and "LI" in text
        text = format_figure_table(sweep, "Figure 6", "data")
        assert "hand" in text


class TestCostConventions:
    def test_lazy_miss(self):
        conv = CostConventions()
        assert conv.miss_messages("LI", m=1) == 2
        assert conv.miss_messages("LI", m=3) == 6
        assert conv.miss_messages("LU", m=1, cold=True) == 4

    def test_eager_miss(self):
        conv = CostConventions()
        assert conv.miss_messages("EI", manager_has_copy=True) == 2
        assert conv.miss_messages("EU", manager_has_copy=False) == 3

    def test_lock(self):
        conv = CostConventions()
        assert conv.lock_messages("LI") == 3
        assert conv.lock_messages("LU", h=2) == 7
        assert conv.lock_messages("EI", remote=False) == 0

    def test_unlock(self):
        conv = CostConventions()
        assert conv.unlock_messages("LI", c=5) == 0
        assert conv.unlock_messages("EI", c=3) == 6
        assert CostConventions(count_acks=False).unlock_messages("EU", c=3) == 3

    def test_barrier(self):
        conv = CostConventions()
        n = 16
        assert conv.barrier_messages("LI", n=n) == 30
        assert conv.barrier_messages("LU", n=n, h=2) == 34
        assert conv.barrier_messages("EU", n=n, u=5) == 40
        assert conv.barrier_messages("EI", n=n, u=5, v=2) == 44

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            CostConventions().miss_messages("XX")

    def test_from_cost_model(self):
        from repro.network.costs import CostModel

        conv = CostConventions.from_cost_model(CostModel(count_acks=False))
        assert conv.count_acks is False
