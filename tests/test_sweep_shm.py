"""Shared-memory trace sharing: lifecycle, crash-safety, and sweeps.

The parallel sweep's workers attach the parent's single shared-memory
segment instead of unpickling a private trace copy. These tests pin the
lifecycle contract: idempotent teardown, unconditional unlink even when
a worker dies mid-sweep, no resource-tracker leaks at interpreter exit,
and the jobs clamp.

The host running the suite may have a single core; tests that need a
real pool patch the CPU set ``run_sweep`` clamps to (``_patch_cpus``;
the start method is fork on Linux, so workers inherit the patch).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import re
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from repro.config import SimConfig
from repro.simulator import sweep as sweep_module
from repro.simulator.shm import SharedTraceColumns, attach_trace
from repro.simulator.sweep import run_sweep
from tests.conftest import small_trace
from tests.test_fastpath_equivalence import result_fields

NEEDS_FORK = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests monkeypatch globals, which only fork propagates",
)


@pytest.fixture(autouse=True)
def _propagate_repro_logs():
    # logging_setup() (exercised by the CLI tests) turns off propagation
    # on the "repro" logger tree, which would hide sweep log records
    # from caplog's root handler when the whole suite runs in one
    # process. Restore propagation for these tests.
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous


def _patch_cpus(monkeypatch, n: int) -> None:
    """Make the jobs clamp see ``n`` usable CPUs: the affinity mask
    where the platform has one, ``os.cpu_count`` otherwise."""
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def many_cores(monkeypatch):
    _patch_cpus(monkeypatch, 4)


def _crash_cell(cell):
    # Module-level so pool.map can pickle it by qualified name; dies hard
    # enough to break the pool (no exception, no cleanup).
    os._exit(13)


_run_sweep_cell = sweep_module._run_sweep_cell


def _crash_at_4096(cell):
    # Dies only on the 4096-byte cells, so other cells can come back
    # before the pool breaks.
    if cell[1] == 4096:
        os._exit(13)
    return _run_sweep_cell(cell)


class TestSharedTraceColumns:
    def test_attach_reconstructs_the_trace(self):
        trace = small_trace("water")
        shared = SharedTraceColumns(trace)
        try:
            shm, attached = attach_trace(shared.descriptor)
            try:
                assert len(attached) == len(trace)
                assert attached.n_procs == trace.n_procs
                assert attached.digest() == trace.digest()
                original = [bytes(memoryview(c).cast("B")) for c in trace.columns()]
                views = [bytes(memoryview(c).cast("B")) for c in attached.columns()]
                assert views == original
            finally:
                del attached  # release borrowed views before closing
                shm.close()
        finally:
            shared.close()
            shared.unlink()

    def test_descriptor_is_small(self):
        trace = small_trace("water")
        with SharedTraceColumns(trace) as shared:
            import pickle

            assert len(pickle.dumps(shared.descriptor)) < 2048

    def test_close_and_unlink_are_idempotent(self):
        shared = SharedTraceColumns(small_trace("water"))
        shared.close()
        shared.close()
        shared.unlink()
        shared.unlink()

    def test_unlink_tolerates_missing_segment(self):
        shared = SharedTraceColumns(small_trace("water"))
        # Something else removed the segment first (e.g. the resource
        # tracker after a crashed run).
        shared_memory.SharedMemory(name=shared.name).unlink()
        shared.close()
        shared.unlink()

    def test_unlink_destroys_the_segment(self):
        shared = SharedTraceColumns(small_trace("water"))
        name = shared.name
        shared.close()
        shared.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@NEEDS_FORK
class TestParallelSweepShm:
    def test_shm_sweep_matches_serial(self, water_trace, many_cores):
        serial = run_sweep(water_trace, page_sizes=[512, 1024])
        parallel = run_sweep(water_trace, page_sizes=[512, 1024], jobs=3)
        assert serial.grid.keys() == parallel.grid.keys()
        for key in serial.grid:
            assert result_fields(serial.grid[key]) == result_fields(
                parallel.grid[key]
            ), key

    def test_execution_paths_match_serial(self, water_trace, many_cores):
        from repro.obs.manifest import execution_paths_line

        valued = SimConfig(n_procs=water_trace.n_procs, record_values=True)
        for options, expected in (
            ({}, {("tape", None): 8}),
            ({"spans": True}, {("tape", None): 8}),
            ({"config": valued}, {("per_event", "record_values"): 8}),
        ):
            serial = run_sweep(water_trace, page_sizes=[512, 1024], **options)
            parallel = run_sweep(water_trace, page_sizes=[512, 1024], jobs=2, **options)
            assert serial.execution_paths() == parallel.execution_paths() == expected
        assert execution_paths_line(parallel.execution_paths()) == (
            "execution paths: 8 x per_event (tape declined: record_values)"
        )

    def test_each_page_size_is_planned_in_one_worker(
        self, water_trace, many_cores, monkeypatch
    ):
        # With at least as many page sizes as workers, a task is one page
        # size's protocol row, so the workers' summed cache deltas show
        # one batch plan per page size.
        page_sizes = [512, 1024, 2048, 4096, 8192]
        logged = []
        monkeypatch.setattr(sweep_module, "_log_plan_cache", logged.append)
        sweep = run_sweep(water_trace, page_sizes=page_sizes, jobs=2)
        (stats,) = logged
        assert stats["plan_builds"] == len(page_sizes)
        assert stats["plan_hits"] == len(sweep.grid) - len(page_sizes)

    def test_sweep_unlinks_segment_on_success(self, water_trace, many_cores, monkeypatch):
        created = []

        class Tracked(SharedTraceColumns):
            def __init__(self, trace):
                super().__init__(trace)
                created.append(self)

        monkeypatch.setattr("repro.simulator.shm.SharedTraceColumns", Tracked)
        run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=2)
        assert len(created) == 1
        assert created[0]._closed and created[0]._unlinked
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0].name)

    def test_sweep_unlinks_segment_after_worker_crash(
        self, water_trace, many_cores, monkeypatch
    ):
        created = []

        class Tracked(SharedTraceColumns):
            def __init__(self, trace):
                super().__init__(trace)
                created.append(self)

        monkeypatch.setattr("repro.simulator.shm.SharedTraceColumns", Tracked)
        monkeypatch.setattr(sweep_module, "_run_sweep_cell", _crash_cell)
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=2)
        assert len(created) == 1
        assert created[0]._closed and created[0]._unlinked
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0].name)

    def test_worker_crash_names_the_missing_cells(self, water_trace, many_cores, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(sweep_module, "_run_sweep_cell", _crash_at_4096)
        protocols, page_sizes = ["LI", "EU"], [512, 1024, 4096]
        with pytest.raises(BrokenProcessPool) as raised:
            run_sweep(water_trace, protocols=protocols, page_sizes=page_sizes, jobs=2)
        named = {
            (protocol, int(size))
            for protocol, size in re.findall(r"(\w+)/(\d+)", str(raised.value))
        }
        partial = raised.value.partial
        assert {("LI", 4096), ("EU", 4096)} <= named
        assert not named & partial.grid.keys()
        assert named | partial.grid.keys() == {(p, s) for p in protocols for s in page_sizes}
        serial = run_sweep(water_trace, protocols=protocols, page_sizes=page_sizes)
        for key, result in partial.grid.items():
            assert result_fields(result) == result_fields(serial.grid[key])

    def test_shm_failure_falls_back_to_pickling(
        self, water_trace, many_cores, monkeypatch, caplog
    ):
        def boom(trace):
            raise OSError("no shared memory here")

        monkeypatch.setattr("repro.simulator.shm.SharedTraceColumns", boom)
        with caplog.at_level(logging.WARNING, logger="repro.simulator.sweep"):
            parallel = run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=2)
        assert any("falling back" in record.getMessage() for record in caplog.records)
        serial = run_sweep(water_trace, protocols=["LI"], page_sizes=[512])
        assert result_fields(parallel.grid[("LI", 512)]) == result_fields(
            serial.grid[("LI", 512)]
        )

    def test_no_resource_tracker_leak_warnings(self, tmp_path):
        # A clean interpreter runs a parallel sweep and exits; the
        # resource tracker must have nothing to complain about.
        script = tmp_path / "sweep_once.py"
        script.write_text(
            "import os\n"
            "os.cpu_count = lambda: 4\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from tests.conftest import small_trace\n"
            "from repro.simulator.sweep import run_sweep\n"
            "sweep = run_sweep(small_trace('water'), protocols=['LI', 'LU'],\n"
            "                  page_sizes=[512], jobs=2)\n"
            "print(len(sweep.grid))\n"
        )
        env = dict(os.environ)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"
        assert "leaked" not in proc.stderr.lower()


class TestJobsClamp:
    @pytest.fixture(autouse=True)
    def _fresh_clamp_log(self, monkeypatch):
        # The clamp notice dedupes per process; each test wants its own.
        monkeypatch.setattr(sweep_module, "_clamp_logged", set())

    def test_jobs_clamped_to_cpu_count(self, water_trace, monkeypatch, caplog):
        _patch_cpus(monkeypatch, 1)
        with caplog.at_level(logging.INFO, logger="repro.simulator.sweep"):
            sweep = run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=8)
        assert any("clamping jobs=8 to effective cpu_count=1" in record.getMessage()
                   for record in caplog.records)
        # Clamped to 1 -> the serial path ran; the grid is still complete.
        assert set(sweep.grid) == {("LI", 512)}

    def test_clamp_logged_once_per_process(self, water_trace, monkeypatch, caplog):
        _patch_cpus(monkeypatch, 1)
        with caplog.at_level(logging.INFO, logger="repro.simulator.sweep"):
            for _ in range(3):
                run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=8)
        clamp_lines = [r for r in caplog.records if "clamping" in r.getMessage()]
        assert len(clamp_lines) == 1

    @NEEDS_FORK
    def test_clamp_keeps_pool_when_cores_allow(self, water_trace, monkeypatch, caplog):
        _patch_cpus(monkeypatch, 2)
        with caplog.at_level(logging.INFO, logger="repro.simulator.sweep"):
            sweep = run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=5)
        assert any("clamping jobs=5 to effective cpu_count=2" in record.getMessage()
                   for record in caplog.records)
        assert set(sweep.grid) == {("LI", 512)}

    def test_clamp_follows_the_affinity_mask(self, water_trace, monkeypatch, caplog):
        # A cgroup cpuset or taskset leaves os.cpu_count() at the
        # machine's count; the clamp must follow the mask instead.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert sweep_module._usable_cpus() == 1
        with caplog.at_level(logging.INFO, logger="repro.simulator.sweep"):
            sweep = run_sweep(water_trace, protocols=["LI"], page_sizes=[512], jobs=8)
        assert any("clamping jobs=8 to effective cpu_count=1" in record.getMessage()
                   for record in caplog.records)
        assert set(sweep.grid) == {("LI", 512)}

    def test_clamp_without_affinity_support_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep_module._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep_module._usable_cpus() == 1
