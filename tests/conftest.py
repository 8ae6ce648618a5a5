"""Shared fixtures: small app traces and helper builders."""

from __future__ import annotations

import pytest

from repro.apps import cholesky, locusroute, mp3d, pthor, water
from repro.config import SimConfig
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.trace.events import Event
from repro.trace.stream import TraceMeta, TraceStream

#: Small-scale parameters per app so whole-suite runs stay fast.
SMALL_SCALE = {
    "locusroute": dict(grid_width=32, grid_height=8, n_wires=16, n_regions=4),
    "cholesky": dict(n_columns=24, column_words=16, fill_degree=3),
    "mp3d": dict(n_particles=48, n_cells=24, n_cell_locks=4, timesteps=2),
    "water": dict(n_molecules=24, timesteps=2, cutoff=0.4),
    "pthor": dict(n_elements=24, windows=2, activations_per_window=3),
}

_GENERATORS = {
    "locusroute": locusroute.generate,
    "cholesky": cholesky.generate,
    "mp3d": mp3d.generate,
    "water": water.generate,
    "pthor": pthor.generate,
}


def small_trace(app: str, n_procs: int = 4, seed: int = 1) -> TraceStream:
    """A small but structurally faithful trace of one app."""
    return _GENERATORS[app](n_procs=n_procs, seed=seed, **SMALL_SCALE[app])


@pytest.fixture(scope="session", params=sorted(_GENERATORS))
def app_trace(request) -> TraceStream:
    """One small trace per application (parametrized)."""
    return small_trace(request.param)


@pytest.fixture(scope="session")
def locusroute_trace() -> TraceStream:
    return small_trace("locusroute")


@pytest.fixture(scope="session")
def water_trace() -> TraceStream:
    return small_trace("water")


def build_trace(n_procs: int, events) -> TraceStream:
    """A hand-written trace from an event list."""
    trace = TraceStream(TraceMeta(n_procs=n_procs, app="hand"))
    for event in events:
        trace.append(event)
    return trace


def lock_chain_trace(n_procs: int = 3, rounds: int = 2, addr: int = 0x100) -> TraceStream:
    """The Figure 3/4 pattern as a raw event list."""
    events = []
    for _ in range(rounds):
        for proc in range(n_procs):
            events += [
                Event.acquire(proc, 0),
                Event.read(proc, addr),
                Event.write(proc, addr),
                Event.release(proc, 0),
            ]
    return build_trace(n_procs, events)


def ledger_fields(result: SimulationResult) -> dict:
    """Every accounting field of one result: all but read values and manifest."""
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


def timeline_fields(timeline) -> dict:
    """Everything a built span timeline holds, as plain comparable values."""
    return {
        "spans": [
            (s.proc, s.kind, s.start, s.end, s.pred, s.buckets, s.label, s.args)
            for s in timeline.spans
        ],
        "flows": timeline.flows,
        "epoch_rows": timeline.epoch_rows,
        "barrier_imbalance_s": timeline.barrier_imbalance_s,
    }


def path_and_reason(result: SimulationResult):
    """``(execution_path, decline_reason)`` as the run's manifest has
    them — the pair ``certify_replay`` answers (reason None on the tape
    and the oracle)."""
    manifest = result.manifest
    return manifest["execution_path"], manifest.get("decline_reason")


def interpreter_engine(trace, protocol, config=None, probe=None, **options) -> Engine:
    """An engine whose ``run()`` is the per-event interpreter for this cell.

    No option selects a loop; values exist only on the interpreter, so a
    run that records them is one — the only loop that keeps page tables,
    copysets and contents for a white-box test to inspect afterwards.
    """
    if config is None:
        config = SimConfig(n_procs=trace.n_procs)
    config = config.with_options(**{**options, "record_values": True})
    return Engine(trace, config, protocol, probe=probe)


def interpreter_result(trace, protocol, config=None, probe=None, **options) -> SimulationResult:
    """The interpreter's result for this cell (see :func:`interpreter_engine`).

    Compare with :func:`ledger_fields`, ``result.metrics`` or
    ``to_dict()`` minus its manifest — everything but ``read_values``
    matches what the tape replay reports.
    """
    result = interpreter_engine(trace, protocol, config, probe, **options).run()
    assert result.manifest["execution_path"] == "per_event"
    return result
