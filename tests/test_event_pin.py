"""The JSONL event trace, pinned byte for byte.

``tests/golden_events_water4.json`` holds the sha256 of the
``events.jsonl`` that ``lrc-sim run --trace-out`` writes for one small
water cell under each of the seven protocols. Any change to what a sink
receives — a field, its order, a kind, a ``seq`` or an epoch — moves a
digest; so does one that only reorders rows. CI's "Event trace rides
the tape" step checks the LI digest on every Python of the matrix.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_events_water4.json").read_text(encoding="utf-8")
)
CELL = ["--app", "water", "--n-procs", "4", "--seed", "1", "--scale", "0.25", "--page-size", "1024"]


@pytest.mark.parametrize("protocol", sorted(GOLDEN["sha256"]))
def test_event_trace_bytes_are_pinned(protocol, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert main(["run", *CELL, "--protocol", protocol, "--trace-out", str(events)]) == 0
    assert "execution path: tape" in capsys.readouterr().out
    assert hashlib.sha256(events.read_bytes()).hexdigest() == GOLDEN["sha256"][protocol]
