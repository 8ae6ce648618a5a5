"""Timed run mode: ledger invariance, virtual clocks, loss/retry.

The two invariants :mod:`repro.network.timed` documents are pinned
here: (a) a timed run's message/byte ledgers are bit-identical to the
counting run for *every* link configuration (drops are transport-level
— they cost time, never delivery), and (b) per-processor accounting
closes exactly (``finish == busy + Σ stalls``).
"""

from __future__ import annotations

import pytest

from repro.analysis.timing_report import (
    compare_timed,
    format_timing_detail,
    format_timing_table,
    run_timed,
    timing_rows,
)
from repro.apps import generate
from repro.config import SimConfig
from repro.network.link import LinkModel
from repro.network.timed import TIMED_STALL_CATEGORIES, NetworkTiming, SendLog
from repro.obs.probe import RecordingProbe
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import Engine, simulate
from repro.simulator.results import SimulationResult
from repro.simulator.sweep import run_sweep
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace

ALL = all_protocol_names()

#: A thoroughly imperfect link: every timed mechanism engaged at once.
LOSSY = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3, jitter_s=1e-4)


def ledger(result: SimulationResult) -> dict:
    """Every counting field of one result, for exact comparison."""
    return {
        "messages": result.messages,
        "data_bytes": result.data_bytes,
        "control_bytes": result.control_bytes,
        "cold_misses": result.cold_misses,
        "invalid_misses": result.invalid_misses,
        "diffs_fetched": result.diffs_fetched,
        "diff_bytes_fetched": result.diff_bytes_fetched,
        "counters": result.counters,
        "by_kind": result.stats.snapshot(),
    }


class TestIdealEquivalence:
    @pytest.mark.parametrize("protocol", ALL)
    def test_ideal_timed_bit_identical_to_counting(self, app_trace, protocol):
        counting = simulate(app_trace, protocol, page_size=1024)
        timed = simulate(
            app_trace, protocol, page_size=1024, link_model=LinkModel.ideal()
        )
        assert ledger(timed) == ledger(counting)
        assert timed.timing is not None and counting.timing is None
        # Zero delay everywhere: the run completes in zero simulated time.
        assert timed.timing["completion_s"] == 0.0

    @pytest.mark.parametrize("protocol", ["LI", "EU"])
    def test_metrics_snapshot_identical(self, water_trace, protocol):
        probe_a, probe_b = RecordingProbe(), RecordingProbe()
        counting = simulate(water_trace, protocol, page_size=1024, probe=probe_a)
        timed = simulate(
            water_trace, protocol, page_size=1024, probe=probe_b,
            link_model=LinkModel.ideal(),
        )
        assert timed.metrics == counting.metrics

    @pytest.mark.parametrize("protocol", ["LI", "LU"])
    def test_batched_config_still_timed_and_identical(self, water_trace, protocol):
        # A config that takes the tape fast path in counting mode takes
        # it timed too, whether the run records the cell's send log or
        # reuses it — with the same ledger and the same clocks either way.
        config = SimConfig(n_procs=water_trace.n_procs, page_size=1024)
        counting = Engine(water_trace, config, protocol).run()
        timed_config = config.with_options(link_model=LOSSY)
        cold = Engine(water_trace, timed_config, protocol).run()
        warm = Engine(water_trace, timed_config, protocol).run()
        assert ledger(cold) == ledger(warm) == ledger(counting)
        assert cold.timing is not None and cold.timing == warm.timing
        for timed in (cold, warm):
            assert timed.manifest["execution_path"] == counting.manifest["execution_path"]


class TestLossyInvariance:
    @pytest.mark.parametrize("protocol", ALL)
    def test_lossy_ledgers_identical(self, water_trace, protocol):
        counting = simulate(water_trace, protocol, page_size=1024)
        lossy = simulate(water_trace, protocol, page_size=1024, link_model=LOSSY)
        assert ledger(lossy) == ledger(counting)
        assert lossy.timing["retries"] > 0
        assert lossy.timing["completion_s"] > 0.0

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.5, 0.9])
    def test_convergence_across_loss_rates(self, water_trace, loss):
        # The post-budget attempt always succeeds, so even loss=0.9
        # terminates — and still counts exactly the lossless messages.
        link = LinkModel(loss=loss, timeout_s=1e-3, latency_s=1e-5)
        result = simulate(water_trace, "LI", page_size=1024, link_model=link)
        baseline = simulate(water_trace, "LI", page_size=1024)
        assert ledger(result) == ledger(baseline)
        if loss:
            assert result.timing["retries"] > 0
            # Loss only ever adds nonnegative timeout penalties.
            lossless = simulate(
                water_trace, "LI", page_size=1024,
                link_model=link.with_options(loss=0.0),
            )
            assert (
                result.timing["completion_s"] >= lossless.timing["completion_s"]
            )

    def test_retries_grow_with_loss(self, water_trace):
        low = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(loss=0.05, timeout_s=1e-3),
        )
        high = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(loss=0.9, timeout_s=1e-3),
        )
        assert high.timing["retries"] > low.timing["retries"]


class TestDeterminism:
    def test_identical_runs_identical_reports(self, water_trace):
        first = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        second = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        assert first.timing == second.timing

    def test_manifest_records_network_provenance(self, water_trace):
        result = simulate(water_trace, "LI", page_size=1024, link_model=LOSSY)
        network = result.manifest["network"]
        assert network["network_seed"] == result.timing["network_seed"]
        assert network["link"] == LOSSY.to_dict()
        assert result.manifest["config"]["link_model"] == LOSSY.to_dict()

    def test_protocols_draw_distinct_sequences(self, water_trace):
        li = simulate(water_trace, "LI", page_size=1024, link_model=LOSSY)
        lu = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        assert li.timing["network_seed"] != lu.timing["network_seed"]


class TestVirtualClocks:
    def test_accounting_closure(self, app_trace):
        link = LinkModel.ethernet_1992(
            loss=0.05, timeout_s=5e-3, jitter_s=1e-4, latency_s=2e-4
        )
        result = simulate(app_trace, "LI", page_size=1024, link_model=link)
        timing = result.timing
        for row in timing["per_proc"]:
            closure = row["busy_s"] + sum(row["stall_s"].values())
            assert abs(row["finish_s"] - closure) < 1e-9
        assert set(timing["stall_s"]) == set(TIMED_STALL_CATEGORIES)
        assert timing["completion_s"] == max(r["finish_s"] for r in timing["per_proc"])

    def test_completion_monotone_in_latency(self, water_trace):
        completions = [
            simulate(
                water_trace, "LI", page_size=1024,
                link_model=LinkModel(latency_s=latency),
            ).timing["completion_s"]
            for latency in (0.0, 1e-4, 1e-3, 5e-3)
        ]
        assert completions == sorted(completions)
        assert completions[-1] > completions[0] > 0.0 or completions[0] == 0.0
        # Any cross-processor message makes nonzero latency visible.
        assert completions[1] > 0.0

    def test_access_cost_charges_busy_time(self, water_trace):
        result = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(access_s=1e-6),
        )
        timing = result.timing
        assert timing["busy_s"] > 0.0
        assert timing["completion_s"] >= max(
            row["busy_s"] for row in timing["per_proc"]
        )

    def test_record_values_supported(self, water_trace):
        result = simulate(
            water_trace, "LI", page_size=1024, link_model=LOSSY,
            record_values=True,
        )
        plain = simulate(water_trace, "LI", page_size=1024, record_values=True)
        assert result.read_values == plain.read_values


class TestClockMechanics:
    """Causality is clock propagation along message edges, nothing
    else — checked on hand traces small enough to work out on paper."""

    WORD = 1e-6
    COMPUTE_ONLY = LinkModel(access_s=WORD)

    def timing(self, trace, protocol="LI", link=COMPUTE_ONLY):
        return simulate(trace, protocol, page_size=512, link_model=link).timing

    def test_independent_procs_overlap(self):
        # Each processor writes a page it manages itself: no messages,
        # so the two clocks never meet.
        timing = self.timing(build_trace(2, [Event.write(0, 0x0), Event.write(1, 0x200)]))
        assert timing["completion_s"] == pytest.approx(self.WORD)
        assert timing["busy_s"] == pytest.approx(2 * self.WORD)

    def test_lock_serializes_clocks(self):
        # A lock chain forces each acquire after the previous release:
        # three processors' work strictly serialized, parallel == serial.
        timing = self.timing(lock_chain_trace(n_procs=3, rounds=1))
        assert timing["completion_s"] == pytest.approx(timing["busy_s"])
        assert timing["busy_s"] == pytest.approx(6 * self.WORD)
        assert timing["stall_s"]["sync_wait"] > 0

    def test_barrier_aligns_clocks(self):
        events = [Event.write(0, 0x0)] * 3
        events += [Event.at_barrier(0, 0), Event.at_barrier(1, 0)]
        waiter = self.timing(build_trace(2, events))["per_proc"][1]
        # p1 arrives with an empty clock and leaves with p0's three writes.
        assert waiter["busy_s"] == 0.0
        assert waiter["finish_s"] == pytest.approx(3 * self.WORD)
        assert waiter["stall_s"]["sync_wait"] == pytest.approx(3 * self.WORD)

    def test_comm_stall_charged_to_faulting_proc(self):
        # A cold miss is two messages (request to the manager, the page
        # back); the faulting processor waits out both latencies.
        trace = build_trace(2, [Event.read(1, 0x0)])
        timing = self.timing(trace, "EI", LinkModel(latency_s=1.0))
        faulting = timing["per_proc"][1]
        assert faulting["busy_s"] == 0.0
        assert faulting["finish_s"] == sum(faulting["stall_s"].values()) == 2.0
        assert timing["completion_s"] == 2.0


class TestLazyBeatsEager:
    """§7's conjecture, end to end: "LRC will outperform eager RC in a
    software DSM environment" — and both beat the SC baseline."""

    @pytest.mark.parametrize("app", ["locusroute", "mp3d"])
    def test_completion_ranks_lazy_eager_exclusive_writer(self, app):
        trace = generate(app)  # the default 16-processor trace
        link = LinkModel.from_preset("ethernet_1992")
        completion = {
            protocol: simulate(
                trace, protocol, page_size=2048, link_model=link
            ).timing["completion_s"]
            for protocol in ("LI", "LU", "EI", "EU", "EW")
        }
        lazy_best = min(completion["LI"], completion["LU"])
        eager_best = min(completion["EI"], completion["EU"])
        assert lazy_best < eager_best < completion["EW"], completion


class TestChannelFifo:
    def test_jitter_never_reorders_a_channel(self):
        # Fold 200 sends on one link under heavy jitter. The sender pays
        # no overhead, so every message departs at 0 and its total delay
        # is its arrival: nondecreasing only because of the FIFO clamp,
        # which holds a fast message at its predecessor's arrival.
        log = SendLog()
        for _ in range(200):
            log.on_send(0, 1, 64)
        link = LinkModel(jitter_s=5e-3, latency_s=1e-5)
        timing = NetworkTiming(link, 2, network_seed=42, keep_delays=True)
        timing.fold(log)
        arrivals = [total for total, _ser, _pen in timing.delay_log]
        assert arrivals == sorted(arrivals)
        clamped = sum(1 for a, b in zip(arrivals, arrivals[1:]) if a == b)
        assert clamped > 100  # most draws fall below the running maximum
        assert timing.clock == [0.0, arrivals[-1]]

    def test_links_queue_independently(self):
        # Finite bandwidth: back-to-back sends on 0->1 queue behind each
        # other; the same burst on 0->2 does not wait for them.
        log = SendLog()
        for dst in (1, 1, 2):
            log.on_send(0, dst, 1000)
        timing = NetworkTiming(
            LinkModel(bandwidth=1e6), 3, network_seed=0, keep_delays=True
        )
        timing.fold(log)
        assert [ser for _total, ser, _pen in timing.delay_log] == [1e-3, 2e-3, 1e-3]


class TestTimedSpans:
    def test_timed_timeline_reconciles_and_buckets_stalls(self, water_trace):
        from repro.analysis.critical_path import analyze_critical_path
        from repro.obs.spans import build_span_timeline

        link = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3)
        result, timeline = build_span_timeline(
            water_trace, "LI", page_size=1024, link_model=link
        )
        assert result.timing is not None
        assert timeline.epoch_rows == list(result.metrics["epochs"])
        report = analyze_critical_path(timeline)
        totals = report.totals
        assert totals["serialization"] > 0.0  # finite bandwidth
        assert totals["retransmit"] > 0.0  # lossy link

    def test_sweep_rollups_carry_timing_columns(self, water_trace, tmp_path):
        from repro.experiments.export import export_sweep_rollups_csv

        config = SimConfig(n_procs=water_trace.n_procs, link_model=LOSSY)
        sweep = run_sweep(
            water_trace, protocols=["LI", "EU"], page_sizes=[1024],
            config=config, spans=True,
        )
        for cell in sweep.rollup_table()["LI"].values():
            assert cell["completion_s"] > 0.0
            assert cell["retries"] > 0
        assert "completion (ms)" in sweep.format_shape_table()
        csv_path = tmp_path / "rollups.csv"
        export_sweep_rollups_csv(sweep, csv_path)
        text = csv_path.read_text(encoding="utf-8")
        assert "completion_s" in text.splitlines()[0]
        assert len(text.splitlines()) == 3  # header + 2 cells


class TestTimingReport:
    def test_compare_timed_table(self, water_trace):
        results = compare_timed(
            water_trace, LOSSY, protocols=["LI", "EU"], page_size=1024
        )
        rows = timing_rows(results)
        assert [row["protocol"] for row in rows] == ["LI", "EU"]
        for row in rows:
            assert row["completion_s"] > 0.0
            assert row["retries"] > 0
            for name in TIMED_STALL_CATEGORIES:
                assert f"stall_{name}_s" in row
        table = format_timing_table(results)
        assert "LI" in table and "EU" in table and "retries" in table

    def test_detail_mentions_completion_and_retries(self, water_trace):
        result = run_timed(water_trace, "LI", LOSSY, page_size=1024)
        detail = format_timing_detail(result.timing)
        assert "completion=" in detail
        assert "retries=" in detail
        assert "network_seed=" in detail

    def test_counting_results_skipped(self, water_trace):
        counting = simulate(water_trace, "LI", page_size=1024)
        assert timing_rows({"LI": counting}) == []
        assert "no timed results" in format_timing_table({"LI": counting})


class TestCli:
    def _args(self):
        return ["--app", "water", "--n-procs", "2", "--seed", "1"]

    def test_run_network(self, capsys):
        from repro.cli import main

        assert main([
            "run", *self._args(), "--protocol", "LI", "--page-size", "1024",
            "--network", "ethernet_1992,loss=2%,timeout=2ms",
        ]) == 0
        out = capsys.readouterr().out
        assert "timed network model" in out
        assert "completion=" in out

    def test_report_timing(self, capsys):
        from repro.cli import main

        assert main([
            "report", *self._args(), "--protocol", "LI", "--page-size", "1024",
            "--timing", "--network", "ethernet_1992,loss=2%,timeout=2ms",
            "--no-spans",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated completion by protocol" in out
        assert "retries" in out
        assert "reconciliation: epoch sums == run totals" in out

    def test_sweep_network_rollups(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "rollups.csv"
        assert main([
            "sweep", *self._args(), "--page-sizes", "1024", "--spans",
            "--rollups-csv", str(csv_path),
            "--network", "ethernet_1992,loss=2%,timeout=2ms",
        ]) == 0
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert "completion_s" in header and "retries" in header

    def test_bad_network_spec_raises_config_error(self, capsys):
        """...which ``main`` reports as a user error: one line, exit 2."""
        from repro.cli import main
        from repro.common.errors import ConfigError
        from repro.network.link import parse_link_spec

        with pytest.raises(ConfigError):
            parse_link_spec("warp=9")
        assert main(["run", *self._args(), "--network", "warp=9"]) == 2
        assert "lrc-sim: error: unknown --network key 'warp'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["", " ", "ethernet_1992,,", ",loss=1%"])
    def test_empty_network_spec_or_segment_raises_config_error(self, capsys, spec):
        """An empty spec used to mean ``ideal`` (untimed, on the CLI) and
        an empty segment was skipped; both are typos, named as such."""
        from repro.cli import main
        from repro.common.errors import ConfigError
        from repro.network.link import parse_link_spec

        with pytest.raises(ConfigError, match="empty segment"):
            parse_link_spec(spec)
        assert main(["run", *self._args(), "--network", spec]) == 2
        assert f"empty segment in --network spec {spec!r}" in capsys.readouterr().err

    def test_non_finite_network_value_raises_config_error(self, capsys):
        from repro.cli import main
        from repro.common.errors import ConfigError
        from repro.network.link import parse_link_spec

        with pytest.raises(ConfigError, match="latency_s must be finite"):
            parse_link_spec("latency=nan")
        assert main(["run", *self._args(), "--network", "latency=nan"]) == 2
        assert "latency_s must be finite" in capsys.readouterr().err
