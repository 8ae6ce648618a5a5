"""Send log + ``NetworkTiming.fold``: cold == warm == the per-event clocks.

A timed run is the counting run plus a fold over the cell's recorded
send order (:mod:`repro.network.timed`). These tests pin that the
refactor changed no number: against a golden captured from the live
per-message observer it replaced, between a run that records its log
and runs that reuse one (recorded under the same or a different link),
and that the log's cache key separates everything that can change what
is sent while sharing across everything that cannot.
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
from tests.conftest import small_trace
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


def send_log_delta(before: dict) -> tuple:
    after = plan_stats()
    return (
        after["send_log_builds"] - before["send_log_builds"],
        after["send_log_hits"] - before["send_log_hits"],
    )


class TestGolden:
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("protocol", ALL)
    def test_timing_reports_match_the_live_observer(self, protocol, link_name):
        trace = small_trace("water", n_procs=4)
        for expected_source in ("recorded", "reused"):
            result = simulate(trace, protocol, page_size=1024, link_model=LINKS[link_name])
            assert result.manifest["send_log"] == expected_source
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
            return manifest["send_log"], observed

        first, second = small_trace("water"), small_trace("water")
        source, cold = run(first, LOSSY)
        assert source == "recorded"
        source, warm = run(first, LOSSY)
        assert source == "reused"
        assert run(second, other)[0] == "recorded"
        source, cross = run(second, LOSSY)
        assert source == "reused"
        assert cold == warm == cross
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
    cold = simulate(trace, protocol, config=config)
    warm = simulate(trace, protocol, config=config)
    assert (cold.manifest["send_log"], warm.manifest["send_log"]) == ("recorded", "reused")
    assert cold.timing == warm.timing
    assert body(cold) == body(warm)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.sampled_from(ALL),
    st.sampled_from([64, 1024]),
    LINK_MODELS,
    st.integers(0, 2),
)
def test_tape_recorded_log_equals_the_interpreters(program, protocol, page_size, link, extra):
    """The tape records a cold cell's send log; a run that reads values
    records its own, on the interpreter, every message at the op that
    sent it. The two logs agree record for record — compute charges
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
    tape = simulate(trace, protocol, config=config)
    interpreted = simulate(trace, protocol, config=config.with_options(record_values=True))
    assert (tape.manifest["execution_path"], tape.manifest["send_log"]) == ("tape", "recorded")
    assert (interpreted.manifest["execution_path"], interpreted.manifest["send_log"]) == (
        "per_event",
        "recorded",
    )
    logs = batch_plan(trace.compiled(page_size), config.n_procs)._send_logs.values()
    tape_log, interpreted_log = [(log.src, log.dst, log.amount) for log in logs]
    assert tape_log == interpreted_log
    assert tape.timing == interpreted.timing


class TestCacheKey:
    def test_changing_only_the_link_reuses_the_log(self):
        trace = small_trace("water")
        before = plan_stats()
        for link in LINKS.values():
            simulate(trace, "LI", page_size=1024, link_model=link)
        assert send_log_delta(before) == (1, len(LINKS) - 1)

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
        simulate(trace, "LI", page_size=1024, link_model=LOSSY)
        before = plan_stats()
        simulate(trace, "LI", page_size=1024, link_model=LOSSY, **change)
        assert send_log_delta(before) == (1, 0)

    def test_each_protocol_records_its_own_log(self):
        trace = small_trace("water")
        before = plan_stats()
        for protocol in ALL:
            simulate(trace, protocol, page_size=1024, link_model=LOSSY)
        assert send_log_delta(before) == (len(ALL), 0)

    def test_counting_runs_never_touch_the_log(self):
        trace = small_trace("water")
        before = plan_stats()
        result = simulate(trace, "LI", page_size=1024)
        assert send_log_delta(before) == (0, 0)
        assert "send_log" not in result.manifest
