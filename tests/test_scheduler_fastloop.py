"""Generation determinism: the scheduler fast loop vs the reference loop.

The acceptance bar for the trace-generation overhaul: for any app, seed,
and processor count, :meth:`Scheduler.run` (incremental runnable set,
inlined dispatch, direct column appends) must produce a ``.trcb`` file
byte-identical to the test oracle's
``tests/reference_oracle.py::scheduler_reference_run`` (the original
rebuild-per-step loop, kept as the behavioural pin).
"""

from __future__ import annotations

import io

import pytest

from repro.apps import APPS
from repro.common.errors import RuntimeDeadlockError
from repro.runtime.scheduler import Scheduler
from repro.trace.codec import dump_binary
from tests.conftest import SMALL_SCALE
from tests.reference_oracle import scheduler_reference_run

APP_NAMES = sorted(APPS)


def trcb_bytes(trace) -> bytes:
    buf = io.BytesIO()
    dump_binary(trace, buf)
    return buf.getvalue()


def reference_loop(monkeypatch) -> None:
    """Route Program.run (and everything else) through the slow loop."""
    monkeypatch.setattr(Scheduler, "run", scheduler_reference_run)


class TestFastLoopByteIdentical:
    @pytest.mark.parametrize("n_procs", [8, 16])
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_small_scale(self, app, n_procs, monkeypatch):
        fast = APPS[app](n_procs=n_procs, seed=3, **SMALL_SCALE[app])
        reference_loop(monkeypatch)
        reference = APPS[app](n_procs=n_procs, seed=3, **SMALL_SCALE[app])
        assert trcb_bytes(fast) == trcb_bytes(reference)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_seed_variation(self, app, monkeypatch):
        fast = [
            APPS[app](n_procs=4, seed=seed, **SMALL_SCALE[app]) for seed in (0, 7)
        ]
        reference_loop(monkeypatch)
        for seed, fast_trace in zip((0, 7), fast):
            reference = APPS[app](n_procs=4, seed=seed, **SMALL_SCALE[app])
            assert trcb_bytes(fast_trace) == trcb_bytes(reference), seed
        # Different seeds genuinely produce different interleavings.
        assert trcb_bytes(fast[0]) != trcb_bytes(fast[1])

    def test_scaled_workload(self, monkeypatch):
        fast = APPS["water"](n_procs=8, seed=1, scale=0.25)
        reference_loop(monkeypatch)
        reference = APPS["water"](n_procs=8, seed=1, scale=0.25)
        assert trcb_bytes(fast) == trcb_bytes(reference)

    @pytest.mark.tier2
    @pytest.mark.parametrize("n_procs", [8, 16])
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_paper_scale(self, app, n_procs, monkeypatch):
        fast = APPS[app](n_procs=n_procs, seed=0)
        reference_loop(monkeypatch)
        reference = APPS[app](n_procs=n_procs, seed=0)
        assert trcb_bytes(fast) == trcb_bytes(reference)


def _lock_pingpong(dsm, proc):
    for _ in range(8):
        yield dsm.acquire(0)
        value = yield dsm.read(0x100)
        yield dsm.write(0x100, value + 1)
        yield dsm.release(0)
    yield dsm.barrier(0)


class TestSchedules:
    def test_round_robin_matches_reference(self):
        traces = []
        for loop in (Scheduler.run, scheduler_reference_run):
            scheduler = Scheduler(4, seed=0, schedule="round_robin")
            for proc in range(4):
                scheduler.spawn(proc, _lock_pingpong)
            traces.append(trcb_bytes(loop(scheduler)))
        assert traces[0] == traces[1]

    def test_round_robin_is_fair(self):
        scheduler = Scheduler(3, seed=0, schedule="round_robin")
        for proc in range(3):
            scheduler.spawn(proc, _lock_pingpong)
        trace = scheduler.run()
        # Every proc gets the same number of events under strict rotation.
        counts = [0] * 3
        for event in trace:
            counts[event.proc] += 1
        assert len(set(counts)) == 1

    def test_contended_locks_match_reference(self):
        # Heavy contention exercises the blocked/rerun transitions that
        # the incremental runnable set must get exactly right.
        traces = []
        for loop in (Scheduler.run, scheduler_reference_run):
            scheduler = Scheduler(8, seed=5)
            for proc in range(8):
                scheduler.spawn(proc, _lock_pingpong)
            traces.append(trcb_bytes(loop(scheduler)))
        assert traces[0] == traces[1]

    def test_deadlock_still_detected(self):
        def grab_both(order):
            def body(dsm, proc):
                yield dsm.acquire(order[0])
                yield dsm.acquire(order[1])

            return body

        scheduler = Scheduler(2, seed=0)
        scheduler.spawn(0, grab_both((0, 1)))
        scheduler.spawn(1, grab_both((1, 0)))
        with pytest.raises(RuntimeDeadlockError):
            scheduler.run()

    def test_steps_counted(self):
        scheduler = Scheduler(2, seed=0)
        for proc in range(2):
            scheduler.spawn(proc, _lock_pingpong)
        trace = scheduler.run()
        # At least one step per recorded event plus one StopIteration step
        # per thread (blocked acquires consume extra steps without
        # appending an event).
        assert scheduler.steps >= len(trace) + 2
