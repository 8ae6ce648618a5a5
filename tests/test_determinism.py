"""Determinism: one small grid, one digest, whatever the hash seed.

lrcbench pins ``PYTHONHASHSEED=0``, so nothing else would notice a
result that depends on set or dict-of-str iteration order. This module
runs a fixed grid — three apps x seven protocols x two page sizes under
a metrics probe, plus one value-recording interpreter cell and one
``SpanProbe`` cell — and folds everything those runs report (ledgers,
counters, metrics snapshots, read values, span records; key order
included) into one digest. The digest must not move with the hash seed
and must equal the committed constant, here and on every Python the CI
matrix runs — on the grid's first pass and on a second and third over the
same traces in one process, which record, reuse and fold what the
earlier passes kept (record streams, lazy cells' priced tapes).

Run as ``python -m tests.test_determinism`` to print the digest of each
of those three passes, one per line.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

from repro.config import SimConfig
from repro.obs.probe import RecordingProbe
from repro.obs.spans import SpanProbe
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import Engine
from tests.conftest import ledger_fields, path_and_reason, small_trace

APPS = ("water", "mp3d", "locusroute")
PAGE_SIZES = (512, 2048)
HASH_SEEDS = ("0", "1", "random")
#: Passes over one set of traces: cold, recording, then folding/reusing.
PASSES = 3

#: ``grid_digest()`` as first committed; a change here is a change in
#: what some run reports and needs the same explanation a ledger would.
EXPECTED = "07df3c8bc0d17ddb850b6bc55876039d"

REPO = Path(__file__).resolve().parent.parent


def grid_digests(passes: int = 1) -> List[str]:
    """The digest of everything the fixed grid's runs report, one per
    pass over the same traces in this process: a later pass records,
    reuses and folds what the earlier ones kept, and must report the
    same."""
    traces = {app: small_trace(app) for app in APPS}
    return [grid_digest(traces) for _ in range(passes)]


def grid_digest(traces) -> str:
    """The digest of everything the fixed grid's runs of ``traces``
    report."""
    cells = []
    for app in APPS:
        trace = traces[app]
        for protocol in all_protocol_names():
            for page_size in PAGE_SIZES:
                config = SimConfig(n_procs=trace.n_procs, page_size=page_size)
                result = Engine(trace, config, protocol, probe=RecordingProbe()).run()
                assert path_and_reason(result) == ("tape", None)
                cells.append([app, protocol, page_size, ledger_fields(result), result.metrics])
    trace = traces["water"]
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    valued = Engine(trace, config.with_options(record_values=True), "LU").run()
    assert path_and_reason(valued) == ("per_event", "record_values")
    cells.append(["values", ledger_fields(valued), valued.read_values])
    probe = SpanProbe()
    spanned = Engine(trace, config, "LI", probe=probe).run()
    assert path_and_reason(spanned) == ("tape", None)
    cells.append(["spans", ledger_fields(spanned), list(probe.records)])
    # No sort_keys: the order a run creates its rows in is part of what
    # it reports (it is the order of every exported table).
    return hashlib.blake2b(json.dumps(cells).encode("utf-8"), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def digest_by_hash_seed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
    digests = {}
    for seed in HASH_SEEDS:
        done = subprocess.run(
            [sys.executable, "-m", "tests.test_determinism"],
            env={**env, "PYTHONHASHSEED": seed},
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests[seed] = done.stdout.split()
    return digests


def test_digest_does_not_move_with_the_hash_seed(digest_by_hash_seed):
    for digests in digest_by_hash_seed.values():
        assert digests == [EXPECTED] * PASSES, digest_by_hash_seed


def test_digest_in_this_process():
    """Under whatever hash seed pytest itself was started with (CI runs
    this module once more with ``PYTHONHASHSEED=random`` exported)."""
    assert grid_digests(PASSES) == [EXPECTED] * PASSES


if __name__ == "__main__":
    print("\n".join(grid_digests(PASSES)))
