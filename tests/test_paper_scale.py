"""Paper-scale end-to-end run: generate -> ``.trcb`` -> sweep (tier2).

A >=250k-event 16-processor water workload flows through the whole
columnar pipeline — scheduler fast loop, a ``.trcb`` save and load, and
a protocol sweep — inside a ~1 GB RSS envelope. This is the scale the
15 B/event columns exist for; the boxed-Event representation did not fit
this budget.
"""

from __future__ import annotations

import resource
import sys

import pytest

from repro.apps import generate
from repro.simulator.sweep import run_sweep
from repro.trace import load_trace, save_trace

#: water at 16 procs, scale 6.0 -> ~293k events.
WORKLOAD = dict(n_procs=16, seed=0, scale=6.0)
MIN_EVENTS = 250_000
#: ru_maxrss ceiling: ~1 GB with a little slack for the interpreter.
MAX_RSS_BYTES = 1_100 * 1024 * 1024


def max_rss_bytes() -> int:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


@pytest.mark.tier2
def test_quarter_million_events_end_to_end(tmp_path):
    generated = generate("water", **WORKLOAD)
    assert len(generated) >= MIN_EVENTS

    # The binary codec round-trips the columns exactly.
    path = tmp_path / "water.trcb"
    save_trace(generated, path)
    trace = load_trace(path)
    assert [list(c) for c in trace.columns()] == [list(c) for c in generated.columns()]
    del generated

    sweep = run_sweep(trace, protocols=["LI", "EI"], page_sizes=[1024, 4096])
    assert set(sweep.grid) == {
        (p, s) for p in ("LI", "EI") for s in (1024, 4096)
    }
    for result in sweep.grid.values():
        assert result.messages > 0

    assert max_rss_bytes() < MAX_RSS_BYTES, (
        f"peak RSS {max_rss_bytes() / 2**20:.0f} MiB exceeds the "
        f"{MAX_RSS_BYTES / 2**20:.0f} MiB budget"
    )
