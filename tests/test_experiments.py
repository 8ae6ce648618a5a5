"""Tests for the experiment runners: Table 1, figures, ablations.

What the paper claims about their results lives in
:mod:`repro.experiments.claims` and is judged by ``test_claims.py``.
"""

import pytest

from repro.experiments.ablation import (
    run_ack_ablation,
    run_diff_ablation,
    run_piggyback_ablation,
)
from repro.experiments.figures import FIGURES, expected_shapes, run_figure
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

    def test_expected_shapes_cover_every_app(self):
        """The names lrcbench's shape check and the figures' claims
        answer to, per app and in order."""
        common = [
            "LI fewer messages than EI",
            "LU fewer messages than EU",
            "LI less data than EI",
            "LU data within/below EU data",
            "EI data is the worst (pages >= 1K)",
            "EI/LI data gap grows with page size",
        ]
        migratory = [
            "LI beats both eager protocols in messages",
            "EU no better than EI on migratory data",
        ]
        assert {app: list(expected_shapes(app)) for app in FIGURES} == {
            "locusroute": common + migratory,
            "cholesky": common + migratory,
            "mp3d": common + ["update protocols miss less", "lazy data at least 2x below EI"],
            "water": common + ["lazy data at least 3x below EI", "EU sends the most messages"],
            "pthor": common + [
                "LI more misses than LU",
                "LI more messages than LU at the largest page",
                "EI data at least 3x every other protocol (pages >= 2K)",
            ],
        }


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
