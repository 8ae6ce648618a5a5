"""Send log + ``NetworkTiming.fold``: cold == warm == the per-event clocks.

A timed run is the counting run plus a fold over the cell's recorded
send order (:mod:`repro.network.timed`). The log is one part of the
cell's record: every timed run writes it or reads a kept one, and keeps
what it writes once the cell was run before. These tests pin that the
refactor changed no number: against a golden captured from the live
per-message observer it replaced, between runs that write their log
and runs that reuse one (recorded under the same or a different link),
and that the record's key separates everything that can change what is
sent while sharing across everything that cannot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SimConfig
from repro.hb.skeleton import batch_plan, plan_stats
from repro.network.costs import CostModel
from repro.network.link import LinkModel
from repro.obs.probe import RecordingProbe
from repro.obs.spans import SpanProbe
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import simulate
from tests.conftest import kept_parts, small_trace
from tests.test_protocol_properties import N_PROCS, interleave, race_free_programs

ALL = all_protocol_names()

LINKS = {
    "ideal": LinkModel.ideal(),
    "bandwidth": LinkModel(bandwidth=1.25e6),
    "lossy_jitter": LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3, jitter_s=1e-4),
}
LOSSY = LINKS["lossy_jitter"]

#: ``result.timing`` of water/4 procs/page 1024 per ``protocol/link``,
#: captured at the last commit whose clocks ran live inside
#: ``Network.send`` (``NetworkTiming.on_send`` + ``Engine._run_timed``).
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_timing_water4.json").read_text(encoding="utf-8")
)


def body(result) -> dict:
    """``to_dict()`` minus the manifest: ledger, metrics and timing."""
    out = result.to_dict()
    out.pop("manifest")
    return out


def log_source(result):
    """Whether ``result``'s run ``recorded`` (wrote and kept) its send
    log or ``reused`` a kept one; None when it kept what it wrote
    nowhere, or wrote none."""
    return result.manifest.get("record", {}).get("log")


class TestGolden:
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("protocol", ALL)
    def test_timing_reports_match_the_live_observer(self, protocol, link_name):
        trace = small_trace("water", n_procs=4)
        for expected_source in (None, "recorded", "reused"):
            result = simulate(trace, protocol, page_size=1024, link_model=LINKS[link_name])
            assert log_source(result) == expected_source
            assert result.timing == GOLDEN[f"{protocol}/{link_name}"]


#: name -> (config overrides, probe factory or None)
VARIANTS = {
    "default": ({}, None),
    "no_piggyback": ({"piggyback_notices": False}, None),
    "paid_reacquire": ({"free_local_lock_reacquire": False}, None),
    "gc_at_barriers": ({"gc_at_barriers": True}, None),
    "record_values": ({"record_values": True}, None),
    "metrics_probe": ({}, RecordingProbe),
    "span_probe": ({}, SpanProbe),
}


class TestColdEqualsWarm:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("protocol", ALL)
    def test_recording_run_equals_folds_over_cached_logs(self, protocol, page_size, variant):
        overrides, make_probe = VARIANTS[variant]
        other = LinkModel(latency_s=3e-4, bandwidth=5e5, access_s=1e-7)

        def run(trace, link):
            probe = make_probe() if make_probe else None
            result = simulate(
                trace, protocol, page_size=page_size, link_model=link, probe=probe, **overrides
            )
            observed = (body(result), result.read_values)
            manifest = result.manifest
            if isinstance(probe, SpanProbe):
                observed += (probe.link_delays, probe.records)
            # Recording the log switches no loop: only reading values
            # leaves the tape, cold or warm.
            assert manifest["execution_path"] == (
                "per_event" if variant == "record_values" else "tape"
            )
            return log_source(result), observed

        # A cell's first run writes its log and keeps nothing; the second
        # keeps the log it writes, and every later one folds over it.
        first, second = small_trace("water"), small_trace("water")
        source, cold = run(first, LOSSY)
        assert source is None
        source, recorded = run(first, LOSSY)
        assert source == "recorded"
        source, warm = run(first, LOSSY)
        assert source == "reused"
        assert [run(second, other)[0] for _ in range(2)] == [None, "recorded"]
        source, cross = run(second, LOSSY)
        assert source == "reused"
        assert cold == recorded == warm == cross
        assert cold[0]["timing"]["completion_s"] > 0.0


#: Every timed mechanism, drawn independently.
LINK_MODELS = st.builds(
    LinkModel,
    latency_s=st.floats(0.0, 1e-2),
    jitter_s=st.floats(0.0, 1e-2),
    bandwidth=st.one_of(st.just(0.0), st.floats(1e3, 1e9)),
    loss=st.floats(0.0, 0.9),
    timeout_s=st.floats(1e-6, 1e-1),
    max_retries=st.integers(0, 12),
    overhead_s=st.floats(0.0, 1e-2),
    access_s=st.floats(0.0, 1e-5),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.sampled_from(["LI", "LU", "EI", "EU"]),
    st.sampled_from([64, 1024]),
    LINK_MODELS,
)
def test_cold_timing_equals_warm_timing(program, protocol, page_size, link):
    scripts, seed = program
    trace = interleave(scripts, seed)
    config = SimConfig(n_procs=N_PROCS, page_size=page_size, link_model=link)
    cold, recorded, warm = [simulate(trace, protocol, config=config) for _ in range(3)]
    assert [log_source(run) for run in (cold, recorded, warm)] == [None, "recorded", "reused"]
    assert cold.timing == recorded.timing == warm.timing
    assert body(cold) == body(recorded) == body(warm)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.sampled_from(ALL),
    st.sampled_from([64, 1024]),
    LINK_MODELS,
    st.integers(0, 2),
)
def test_tape_recorded_log_equals_the_interpreters(program, protocol, page_size, link, extra):
    """The tape records a cell's send log; a run that reads values
    records its own, on the interpreter, every message at the op that
    sent it. (Each cell runs twice: the second run keeps its log.) The two logs agree record for record — compute charges
    included, merged in by op position — and so do their clocks, bit for
    bit. ``extra`` > 0 simulates more processors than the program has,
    which a barrier it re-enters would refuse: the program drops them."""
    scripts, seed = program
    if extra:
        scripts = {
            proc: [op for op in script if op[0] != "barrier"] for proc, script in scripts.items()
        }
    trace = interleave(scripts, seed)
    config = SimConfig(n_procs=N_PROCS + extra, page_size=page_size, link_model=link)
    tape = [simulate(trace, protocol, config=config) for _ in range(2)][1]
    values = config.with_options(record_values=True)
    interpreted = [simulate(trace, protocol, config=values) for _ in range(2)][1]
    assert (tape.manifest["execution_path"], log_source(tape)) == ("tape", "recorded")
    assert (interpreted.manifest["execution_path"], log_source(interpreted)) == (
        "per_event",
        "recorded",
    )
    logs = kept_parts(batch_plan(trace.compiled(page_size), config.n_procs), "log")
    tape_log, interpreted_log = [(log.src, log.dst, log.amount) for log in logs]
    assert tape_log == interpreted_log
    assert tape.timing == interpreted.timing


class TestCacheKey:
    def test_changing_only_the_link_reuses_the_log(self):
        trace = small_trace("water")
        runs = [simulate(trace, "LI", page_size=1024, link_model=link) for link in LINKS.values()]
        assert [log_source(run) for run in runs] == [None, "recorded", "reused"]
        assert len(kept_parts(batch_plan(trace.compiled(1024), trace.n_procs), "log")) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"cost_model": CostModel(header_bytes=64)},
            {"skip_overwritten_diffs": False},
            {"diff_to_invalid_copy": False},
            {"free_local_lock_reacquire": False},
            {"piggyback_notices": False},
            {"gc_at_barriers": True},
            {"record_values": True},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_other_config_field_records_a_new_log(self, change):
        trace = small_trace("water")
        for _ in range(2):
            simulate(trace, "LI", page_size=1024, link_model=LOSSY)
        changed = [
            simulate(trace, "LI", page_size=1024, link_model=LOSSY, **change) for _ in range(2)
        ]
        assert [log_source(run) for run in changed] == [None, "recorded"]

    def test_each_protocol_records_its_own_log(self):
        trace = small_trace("water")
        for protocol in ALL:
            runs = [simulate(trace, protocol, page_size=1024, link_model=LOSSY) for _ in range(2)]
            assert [log_source(run) for run in runs] == [None, "recorded"], protocol
        assert len(kept_parts(batch_plan(trace.compiled(1024), trace.n_procs), "log")) == len(ALL)

    def test_counting_runs_never_touch_the_log(self):
        trace = small_trace("water")
        before = plan_stats()
        results = [simulate(trace, "LI", page_size=1024) for _ in range(3)]
        assert [log_source(result) for result in results] == [None] * 3
        assert not kept_parts(batch_plan(trace.compiled(1024), trace.n_procs), "log")
        after = plan_stats()
        assert after["record_builds"] - before["record_builds"] == 1  # the priced tape only
