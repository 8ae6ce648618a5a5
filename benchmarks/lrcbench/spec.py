"""What the benchmark runs: sizes, grids and the metric declarations.

``BENCHMARK.json`` is the single home of metric names, units and
regression bounds; this module loads it so the harness can refuse to
report a metric the file does not declare (and vice versa).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RESULTS_DIR = BENCH_DIR / "results"
#: Scratch space for generated ``.trcb`` files and CLI outputs. Inside
#: the checkout on purpose: the benchmark may write nowhere else.
WORK_DIR = BENCH_DIR / "work"
REFERENCE_PATH = BENCH_DIR / "reference" / "ledgers-seed0.json"
HISTORY_PATH = RESULTS_DIR / "history.jsonl"

WORKLOADS = ("sweep_cold", "replay_warm", "timed_lossy", "observed", "cli_cold")

N_PROCS = 16
#: The figures grid plus the three extra protocols, in registry order.
PROTOCOLS = ("LI", "LU", "LH", "HLRC", "EI", "EU", "EW")
#: The paper's four — the only ones ``expected_shapes`` speaks about,
#: and the ones the timed and span workloads cover.
PAPER_PROTOCOLS = ("LI", "LU", "EI", "EU")
EAGER_PROTOCOLS = ("EI", "EU", "EW")
PAGE_SIZES = (512, 1024, 2048, 4096, 8192)
TIMED_APPS = ("water", "locusroute", "pthor")
TIMED_PAGE_SIZES = (1024, 4096)
OBSERVED_PAGE_SIZE = 2048
#: Every timed mechanism engaged at once (bench_core's lossy link).
LOSSY_LINK = dict(loss=0.02, timeout_s=2e-3, jitter_s=5e-5)

#: Workload size as a fraction of the generators' defaults. The issue
#: sized the workloads at 1.0 (126,875 events; one cold grid pass takes
#: ~17 s on a 2-core host); the driver's cap of ~30 s per run including
#: three set-ups forces 0.25, which still lets every ``expected_shapes``
#: predicate hold (checked on seeds 0..59) and gives several passes per
#: run, so medians are steady.
SCALE = 0.25
#: ``cli_cold``'s single ``run`` command replays a 4x larger trace than
#: the grid commands, as in the issue (``--scale 4`` at full size).
CLI_RUN_SCALE_FACTOR = 4

#: A CLI command that has not finished by then counts as failed.
CLI_TIMEOUT_S = 150
#: Serial/``jobs=2`` pairs behind ``simulator.pool_speedup``.
POOL_SAMPLES = 5

DEFAULT_PASSES = 5
DEFAULT_PASSES_BY_WORKLOAD = {"sweep_cold": 3}
#: Traced passes per workload in a full run, each the neighbour of an
#: untraced pass (three, so ``trace_overhead_frac`` has a spread).
TRACED_PASSES = 3
SETUP_REPS = 3


def app_params(app: str, scale: float = SCALE) -> Dict[str, object]:
    """Generator keyword arguments for ``app`` at harness scale ``scale``.

    PTHOR's own ``scale`` only resizes the circuit and leaves the event
    count flat, and its shape predicates need the default 256 elements;
    its trace length is set by the number of time windows instead.
    """
    if app == "pthor":
        return {"windows": max(1, round(4 * scale))}
    return {"scale": scale}


def base_key(key: str) -> str:
    """``app/protocol/page_size`` of a cell key: the counting ledger it must match.

    Cell keys carry an optional fourth part naming the path that ran
    the cell (``/warm``, ``/lossy``, ``/sink``, ``/jobs2`` ...).
    """
    return "/".join(key.split("/")[:3])


def digest(value: object) -> str:
    """Short stable digest of a JSON-able value (ledgers, cell tables)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def declared_metrics(section: str) -> Dict[str, Dict[str, object]]:
    """``{name: declaration}`` for ``end_to_end`` or ``per_layer``."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return {entry["name"]: entry for entry in json.load(fh)[section]}
