"""Tests for lock analysis, protocol statistics, charts, and export."""

import json

import pytest

from repro.analysis.charts import render_bar_line, render_series_chart, render_sweep_chart
from repro.analysis.locks import analyze_locks
from repro.analysis.protocol_stats import Distribution, instrumented_run
from repro.apps.synthetic import single_lock_chain
from repro.experiments.export import export_all, export_sweep_csv, export_table1_csv
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace


class TestLockAnalysis:
    def test_lock_chain_all_handoffs(self):
        trace = single_lock_chain(n_procs=4, rounds=2, seed=0)
        report = analyze_locks(trace)
        assert report.n_locks == 1
        assert report.total_acquisitions == 8
        profile = report.locks[0]
        assert profile.n_holders == 4
        assert profile.handoff_rate > 0.5

    def test_reacquire_heavy_lock(self):
        events = []
        for _ in range(5):
            events += [Event.acquire(0, 0), Event.release(0, 0)]
        report = analyze_locks(build_trace(1, events))
        assert report.locks[0].handoffs == 0
        assert report.locks[0].reacquires == 4
        assert report.handoff_rate == 0.0

    def test_category_split_matches_paper(self):
        """Lock/barrier ratio separates the two §5.8 program categories."""
        migratory = analyze_locks(small_trace("cholesky"))
        barrier_heavy = analyze_locks(small_trace("mp3d"))
        assert migratory.lock_to_barrier_ratio == float("inf")
        assert barrier_heavy.lock_to_barrier_ratio < migratory.lock_to_barrier_ratio

    def test_format(self):
        text = analyze_locks(small_trace("locusroute")).format()
        assert "handoff rate" in text and "lock" in text

    def test_hottest_ordering(self):
        report = analyze_locks(small_trace("locusroute"))
        hottest = report.hottest(3)
        assert all(
            hottest[i].acquisitions >= hottest[i + 1].acquisitions
            for i in range(len(hottest) - 1)
        )


class TestDistribution:
    def test_summary_stats(self):
        dist = Distribution({1: 8, 2: 1, 5: 1})
        assert dist.total == 10
        assert dist.mean == pytest.approx(1.5)
        assert dist.percentile(0.5) == 1
        assert dist.percentile(0.9) == 2
        assert dist.percentile(0.95) == 5
        assert dist.max == 5
        assert dist.fraction_at_most(1) == 0.8

    def test_empty(self):
        dist = Distribution({})
        assert dist.total == 0 and dist.mean == 0.0 and dist.max == 0
        assert "no observations" in dist.format("m")

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            Distribution({1: 1}).percentile(0)


class TestInstrumentedRun:
    def test_migratory_m_is_one(self):
        """Lock-chained data: every miss has exactly one last modifier."""
        trace = lock_chain_trace(n_procs=4, rounds=4)
        stats = instrumented_run(trace, "LI", page_size=512)
        assert stats.miss_modifiers.total > 0
        assert stats.miss_modifiers.max == 1

    def test_false_sharing_raises_m(self):
        from repro.apps.synthetic import false_sharing

        trace = false_sharing(n_procs=6, rounds=10, words_per_proc=8)
        stats = instrumented_run(trace, "LI", page_size=2048)
        assert stats.miss_modifiers.max > 1

    def test_lu_has_pull_distribution(self):
        trace = small_trace("locusroute")
        stats = instrumented_run(trace, "LU", page_size=1024)
        assert stats.pull_modifiers.total > 0
        assert "h (modifiers per pull)" in stats.format()

    @pytest.mark.parametrize("protocol", ["LI", "LU"])
    def test_same_distributions_when_the_cell_folds(self, protocol):
        """The histograms are read off the protocol after the run: a run
        that folds its cell's priced tape (the third on one plan; the
        second records it) restores them, so every run reports the
        first one's."""
        trace = small_trace("water")
        runs = [instrumented_run(trace, protocol, page_size=1024) for _ in range(3)]
        assert [stats.result.manifest.get("record", {}).get("priced") for stats in runs] == [
            None,
            "recorded",
            "reused",
        ]
        first = runs[0]
        assert first.miss_modifiers.total > 0
        for stats in runs[1:]:
            assert stats.miss_modifiers.counts == first.miss_modifiers.counts
            assert stats.pull_modifiers.counts == first.pull_modifiers.counts

    def test_rejects_eager_protocols(self):
        trace = lock_chain_trace()
        with pytest.raises(ValueError):
            instrumented_run(trace, "EI")

    def test_small_m_explains_lazy_wins(self):
        """§5: migratory apps keep m near 1 — the reason LI's misses are
        cheaper than eager full-page fetches."""
        stats = instrumented_run(small_trace("cholesky"), "LI", page_size=1024)
        assert stats.miss_modifiers.mean < 1.6


class TestCharts:
    def test_bar_scaling(self):
        assert render_bar_line(0, 100) == ""
        assert len(render_bar_line(100, 100, width=10)) == 10
        assert len(render_bar_line(1, 1000, width=10)) == 1  # never invisible

    def test_series_chart_contents(self):
        text = render_series_chart(
            "demo", [512, 1024], {"LI": [10, 20], "EI": [30, 40]}, unit=" msgs"
        )
        assert "demo" in text and "512:" in text and "msgs" in text
        assert text.count("LI") == 2

    def test_series_length_checked(self):
        with pytest.raises(ValueError):
            render_series_chart("x", [1, 2], {"LI": [1]})

    def test_sweep_chart(self):
        sweep = run_sweep(lock_chain_trace(), page_sizes=[512, 1024])
        text = render_sweep_chart(sweep, "messages")
        assert "messages by page size" in text
        data_text = render_sweep_chart(sweep, "data")
        assert "kB" in data_text
        with pytest.raises(ValueError):
            render_sweep_chart(sweep, "latency")


class TestExport:
    def test_sweep_csv(self, tmp_path):
        sweep = run_sweep(lock_chain_trace(), page_sizes=[512, 1024])
        path = tmp_path / "fig.csv"
        export_sweep_csv(sweep, "messages", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("page_size,LI,LU,EI,EU")
        assert len(lines) == 3

    def test_table1_csv(self, tmp_path):
        path = tmp_path / "table1.csv"
        cells = export_table1_csv(path)
        assert cells >= 30
        content = path.read_text()
        assert "True" in content and "False" not in content

    def test_export_all_small(self, tmp_path, monkeypatch):
        # Shrink the app scale so the full export stays fast.
        from repro.experiments import export as export_module
        from tests.conftest import small_trace as make_small

        monkeypatch.setitem(
            export_module.__dict__,
            "APPS",
            {"water": lambda n_procs, seed: make_small("water", n_procs=4)},
        )
        manifest = export_all(tmp_path, apps=["water"], n_procs=4)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "table1.csv").exists()
        figures = json.loads((tmp_path / "figures.json").read_text())
        assert "water" in figures
        assert set(figures["water"]["messages"]) == {"LI", "LU", "EI", "EU"}
        assert "fig11_water_messages.csv" in manifest["files"]
