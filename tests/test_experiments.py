"""Tests for the experiment runners: Table 1, figures, ablations."""

import pytest

from repro.experiments.ablation import (
    run_ack_ablation,
    run_diff_ablation,
    run_false_sharing_sweep,
    run_piggyback_ablation,
)
from repro.experiments.figures import FIGURES, expected_shapes, run_figure, run_lock_chain
from repro.experiments.table1 import run_table1
from repro.simulator.costs import CostConventions
from tests.conftest import small_trace


class TestTable1:
    def test_every_cell_matches_analytical_model(self):
        rows = run_table1()
        failures = [r for r in rows if not r.ok]
        assert failures == []
        assert len(rows) >= 30

    def test_every_cell_is_measured_on_the_tape(self, monkeypatch):
        """Table 1 is a check *of the tape*: each cell is two plain
        ``Engine.run()`` calls (whole micro-trace, prefix) and every one
        of them replays the tape."""
        from repro.simulator.engine import Engine

        paths = []
        real_run = Engine.run

        def spy(engine):
            result = real_run(engine)
            paths.append(result.manifest["execution_path"])
            return result

        monkeypatch.setattr(Engine, "run", spy)
        rows = run_table1()
        assert len(rows) == 31 and all(row.ok for row in rows)
        assert paths == ["tape"] * (2 * len(rows))

    def test_covers_all_protocols_and_operations(self):
        rows = run_table1()
        assert {r.protocol for r in rows} == {"LI", "LU", "EI", "EU"}
        assert {r.operation for r in rows} == {"miss", "lock", "unlock", "barrier"}

    def test_uncounted_ack_conventions(self):
        rows = run_table1(CostConventions(count_acks=False))
        # The analytical model changes; simulation uses default costs, so
        # eager push rows must now disagree...
        eager_pushes = [
            r for r in rows if r.protocol in ("EI", "EU") and r.operation == "unlock"
        ]
        assert any(not r.ok for r in eager_pushes)


class TestFigures:
    def test_figure_spec_table(self):
        assert set(FIGURES) == {"locusroute", "cholesky", "mp3d", "water", "pthor"}
        assert FIGURES["locusroute"].messages_figure == 5
        assert FIGURES["pthor"].data_figure == 14

    @pytest.mark.parametrize("app", sorted(FIGURES))
    def test_small_scale_sweep_runs(self, app):
        trace = small_trace(app)
        sweep = run_figure(app, trace=trace, page_sizes=[256, 1024])
        assert sweep.page_sizes == [256, 1024]
        for protocol in ("LI", "LU", "EI", "EU"):
            assert all(v > 0 for v in sweep.message_series(protocol))

    @pytest.mark.parametrize("app", sorted(FIGURES))
    def test_core_lazy_claims_hold_at_small_scale(self, app):
        """The headline lazy-vs-eager data claim survives even tiny runs."""
        trace = small_trace(app)
        sweep = run_figure(app, trace=trace, page_sizes=[1024, 4096])
        for i in range(2):
            assert sweep.data_series("LI")[i] < sweep.data_series("EI")[i]

    def test_expected_shapes_cover_every_app(self):
        for app in FIGURES:
            shapes = expected_shapes(app)
            assert len(shapes) >= 5


class TestLockChain:
    def test_figure_3_4_scenario(self):
        results = run_lock_chain(n_procs=4, rounds=6, page_size=512)
        by_name = {r.protocol: r for r in results}
        # Figure 3's problem: EU re-updates every cached copy per release.
        assert by_name["EU"].messages > by_name["LU"].messages
        # Figure 4's point: lazy moves the datum with the lock grant.
        assert by_name["LI"].data_bytes < by_name["EI"].data_bytes
        # Lazy protocols never communicate at unlock.
        assert by_name["LI"].category_messages()["unlock"] == 0


class TestAblations:
    def test_diff_ablation_saves_data(self):
        trace = small_trace("locusroute")
        ablation = run_diff_ablation(trace=trace, page_size=2048)
        assert ablation.data_saving > 0.2  # diffs vs whole pages
        assert ablation.on.messages <= ablation.off.messages

    def test_piggyback_ablation_saves_messages(self):
        trace = small_trace("locusroute")
        ablation = run_piggyback_ablation(trace=trace, page_size=2048)
        assert ablation.message_saving > 0
        assert ablation.on.data_bytes == ablation.off.data_bytes

    def test_ack_ablation_direction(self):
        trace = small_trace("mp3d")
        ablation = run_ack_ablation(trace=trace, protocol="EU", page_size=2048)
        # Not counting acks can only reduce message totals.
        assert ablation.on.messages < ablation.off.messages

    def test_ablation_format(self):
        trace = small_trace("water")
        text = run_diff_ablation(trace=trace, protocol="LI").format()
        assert "diff-to-invalid-copy" in text

    def test_false_sharing_gap_grows_with_page_size(self):
        grid = run_false_sharing_sweep(n_procs=4, page_sizes=[256, 4096], rounds=12)
        def gap(page_size):
            eager = grid[page_size]["EI"].data_bytes
            lazy = grid[page_size]["LI"].data_bytes
            return eager / max(lazy, 1)

        assert gap(4096) > gap(256)
