"""The priced eager tape: three replays of one eager run agree on everything.

A certified eager run folds one merged ledger record per synchronization
instruction and inter-sync gap (:class:`repro.hb.skeleton.PricedEagerTape`)
instead of sending message by message. These tests pin that fold against
the two paths it bypasses — the per-message ``_k_*`` tape kernels and the
per-event interpreter — on the result, every counter, and the metrics
probe's rows down to the order they were created in; that the fold really
sends nothing while a watched run still sends everything; and that a warm
timed cell, which now replays the priced tape before folding its send
log, still produces the golden clocks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SimConfig
from repro.hb.skeleton import batch_plan, plan_stats
from repro.network.costs import CostModel
from repro.network.network import Network
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import MemorySink
from repro.simulator.engine import Engine, simulate
from tests.conftest import interpreter_result, ledger_fields, small_trace
from tests.test_protocol_properties import N_PROCS, interleave, race_free_programs
from tests.test_send_log import GOLDEN, LINKS

EAGER = ("EI", "EU", "EW")

#: Every accounting policy the pricing resolves at build time, flipped
#: one at a time and all together.
COST_MODELS = {
    "paper": CostModel(),
    "free_acks": CostModel(count_acks=False),
    "header_in_data": CostModel(count_header_in_data=True),
    "control_in_data": CostModel(count_control_in_data=True),
    "all_flipped": CostModel(
        count_acks=False, count_header_in_data=True, count_control_in_data=True
    ),
}

#: path -> (config overrides, keep a message log, expected manifest pair)
PATHS = {
    "priced": ({}, False, ("tape", None)),
    # A kept message log needs every send; nothing else about the run
    # (probe, sinks, config) differs from the priced one.
    "per_message": ({}, True, ("batched", "keep_log")),
    # Values exist only on the interpreter; recording them asks for it.
    "per_event": ({"record_values": True}, False, ("per_event", "record_values")),
}


def observe(trace, protocol, config, path):
    """One run under a stock metrics probe: everything a run can show."""
    overrides, keep_log, expected = PATHS[path]
    probe = RecordingProbe()
    engine = Engine(trace, config.with_options(**overrides), protocol, probe=probe)
    engine.protocol.network.keep_log = keep_log
    result = engine.run()
    manifest = result.manifest
    assert (manifest["execution_path"], manifest.get("decline_reason")) == expected
    body = result.to_dict()
    body.pop("manifest")
    return {
        "body": body,
        "fields": ledger_fields(result),
        "metrics": result.metrics,
        # Creation order of the staged rows and of the registry's tables.
        "segments": list(probe._segments),
        "lock_rows": list(probe._lock_rows),
        "barrier_rows": list(probe._barrier_rows),
        "registry_locks": list(probe.metrics._locks),
        "registry_epochs": probe.metrics._epochs,
    }


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("cost_key", sorted(COST_MODELS))
    @pytest.mark.parametrize("free_reacquire", [True, False], ids=["free", "paid"])
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("protocol", EAGER)
    def test_priced_equals_per_message_equals_per_event(
        self, app_trace, protocol, page_size, free_reacquire, cost_key
    ):
        config = SimConfig(
            n_procs=app_trace.n_procs,
            page_size=page_size,
            cost_model=COST_MODELS[cost_key],
            free_local_lock_reacquire=free_reacquire,
        )
        priced, per_message, per_event = (
            observe(app_trace, protocol, config, path) for path in PATHS
        )
        assert priced == per_message
        assert priced == per_event
        assert priced["body"]["messages"] > 0

    @pytest.mark.parametrize("protocol", EAGER)
    def test_without_a_probe(self, app_trace, protocol):
        config = SimConfig(n_procs=app_trace.n_procs, page_size=1024)
        priced = simulate(app_trace, protocol, config=config)
        reference = interpreter_result(app_trace, protocol, config)
        assert priced.manifest["execution_path"] == "tape"
        assert ledger_fields(priced) == ledger_fields(reference)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    race_free_programs(),
    st.sampled_from(EAGER),
    st.sampled_from([64, 1024]),
    st.booleans(),
    st.sampled_from(sorted(COST_MODELS)),
)
def test_random_race_free_traces(program, protocol, page_size, free_reacquire, cost_key):
    scripts, seed = program
    trace = interleave(scripts, seed)
    config = SimConfig(
        n_procs=N_PROCS,
        page_size=page_size,
        cost_model=COST_MODELS[cost_key],
        free_local_lock_reacquire=free_reacquire,
    )
    priced, per_message, per_event = (
        observe(trace, protocol, config, path) for path in PATHS
    )
    assert priced == per_message == per_event


class TestNoSends:
    @pytest.fixture
    def sends(self, monkeypatch):
        calls = []
        real_send = Network.send

        def spy(self, kind, src, dst, *args, **kwargs):
            calls.append((kind, src, dst))
            return real_send(self, kind, src, dst, *args, **kwargs)

        monkeypatch.setattr(Network, "send", spy)
        return calls

    @pytest.mark.parametrize("probe", [None, RecordingProbe], ids=["bare", "metrics"])
    @pytest.mark.parametrize("protocol", EAGER)
    def test_certified_counting_run_never_calls_send(self, water_trace, sends, protocol, probe):
        result = simulate(
            water_trace, protocol, page_size=1024, probe=probe() if probe else None
        )
        assert result.manifest["execution_path"] == "tape"
        assert result.messages > 0
        assert sends == []

    @pytest.mark.parametrize("protocol", EAGER)
    def test_sink_attached_run_still_sends_every_message(self, water_trace, sends, protocol):
        def watched(run):
            del sends[:]
            result = run(
                water_trace,
                protocol,
                page_size=1024,
                probe=RecordingProbe(sinks=[MemorySink()]),
            )
            return result, list(sends)

        batched, batched_sends = watched(simulate)
        assert batched.manifest["execution_path"] == "batched"
        assert batched.manifest["decline_reason"] == "event_sink"
        per_event, per_event_sends = watched(interpreter_result)
        # Same messages, same order, as the interpreter — local hops included.
        assert batched_sends == per_event_sends
        remote = [call for call in batched_sends if call[1] != call[2]]
        assert len(remote) == batched.messages == per_event.messages


class TestPlanCache:
    def test_priced_tapes_are_counted_apart_and_keyed_by_cost(self):
        trace = small_trace("water")
        config = SimConfig(n_procs=trace.n_procs, page_size=1024)

        def delta(run_config):
            before = plan_stats()
            simulate(trace, "EI", config=run_config)
            after = plan_stats()
            return {k: after[k] - before[k] for k in after if after[k] != before[k]}

        assert delta(config) == {
            "plan_builds": 1,
            "eager_tape_builds": 1,
            "priced_tape_builds": 1,
        }
        # Warm: one priced-tape hit; the unpriced tape is not looked up.
        assert delta(config) == {"plan_hits": 1, "priced_tape_hits": 1}
        # A new cost key prices the same unpriced tape again.
        other = config.with_options(cost_model=COST_MODELS["all_flipped"])
        assert delta(other) == {
            "plan_hits": 1,
            "eager_tape_hits": 1,
            "priced_tape_builds": 1,
        }
        paid = config.with_options(free_local_lock_reacquire=False)
        assert delta(paid)["priced_tape_builds"] == 1

    def test_one_record_per_sync_instruction_plus_nonempty_gaps(self):
        from repro.hb.skeleton import P_MISS
        from repro.trace.runs import R_ACQUIRE

        trace = small_trace("water")
        plan = batch_plan(trace.compiled(1024), trace.n_procs)
        syncs = [ins for ins in plan.runs.instructions() if ins[0] >= R_ACQUIRE]
        for policy in EAGER:
            records = plan.priced_eager_tape(policy, CostModel(), True).records
            sync_records = [rec for rec in records if rec[0] != P_MISS]
            assert [rec[1] for rec in sync_records] == [ins[2] for ins in syncs]
            gaps = [rec for rec in records if rec[0] == P_MISS]
            assert gaps and all(rec[3] is not None for rec in gaps)


class TestTimedWarmCell:
    @pytest.mark.parametrize("link_name", sorted(LINKS))
    @pytest.mark.parametrize("protocol", EAGER)
    def test_priced_replay_plus_fold_matches_the_golden_clocks(self, protocol, link_name):
        trace = small_trace("water", n_procs=4)
        link = LINKS[link_name]
        counting = simulate(trace, protocol, page_size=1024)
        cold = simulate(trace, protocol, page_size=1024, link_model=link)
        warm = simulate(trace, protocol, page_size=1024, link_model=link)
        assert cold.manifest["execution_path"] == "per_event"
        assert (warm.manifest["execution_path"], warm.manifest["send_log"]) == (
            "tape",
            "reused",
        )
        assert warm.timing == cold.timing == GOLDEN[f"{protocol}/{link_name}"]
        assert ledger_fields(warm) == ledger_fields(cold) == ledger_fields(counting)
