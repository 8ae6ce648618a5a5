"""Smoke test of the benchmark harness itself.

Not part of tier-1 (it runs every workload once, ~1 minute). Run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/lrcbench/test_lrcbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def lrcbench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=str(ROOT), text=True, capture_output=True, timeout=600
    )


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_run_emits_every_declared_metric(declared, tmp_path):
    out = tmp_path / "quick.json"
    done = lrcbench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == sorted(w["name"] for w in declared["workloads"])
    layer_names = {m["name"] for m in declared["per_layer"]}
    measured = set()
    for name, workload in record["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] > 0, name
        for metric in declared["end_to_end"]:
            stats = workload["end_to_end"][metric["name"]]
            assert stats["median"] > 0, (name, metric["name"])
        measured |= set(workload["per_layer"]) & layer_names
    assert measured == layer_names
    # Every printed metric line carries its unit.
    for metric in declared["end_to_end"] + declared["per_layer"]:
        lines = [l.split() for l in done.stdout.splitlines() if l.split()[:1] == [metric["name"]]]
        assert lines, metric["name"]
        assert all(line[2] == metric["unit"] for line in lines), metric["name"]


def test_corrupted_reference_fails_the_run(tmp_path):
    reference = json.loads((BENCH_DIR / "reference" / "ledgers-seed0.json").read_text())
    reference["counting"]["water/LI/1024"] = "0" * 16
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(reference))
    done = lrcbench(
        "--workload", "timed_lossy", "--passes", "2", "--trace", "0",
        "--reference", str(corrupted),
    )
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    # The cell runs over two links in each of two passes; failures add
    # up over passes exactly as ``attempted`` does.
    assert result["failed"] == 2 * 2 < result["attempted"]
    assert "water/LI/1024" in done.stdout


def test_other_seed_changes_digests_but_passes_cross_path_checks(tmp_path):
    records = {}
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}.json"
        done = lrcbench(
            "--workload", "observed", "--quick", "--trace", "0",
            "--seed", str(seed), "--out", str(out),
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        records[seed] = json.loads(out.read_text())["workloads"]["observed"]
    # Same cells attempted over different traces. The committed reference
    # covers seed 0 only, so seed 1 passed on the cross-path checks alone
    # (observed == probe-off ledgers).
    assert records[0]["attempted"] == records[1]["attempted"]
    assert records[0]["ledger_digest"] != records[1]["ledger_digest"]
