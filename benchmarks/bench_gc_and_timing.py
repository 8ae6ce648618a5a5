"""Extension benches: diff retention/GC and estimated runtime cost.

Two things the paper flags but does not measure: LRC's memory cost
(§5.1 assumes infinite memory) and its runtime cost (§7's future work).
"""

import pytest

from repro.analysis.timing_report import estimate_runtime
from repro.apps import APPS
from repro.network.link import LinkModel
from repro.simulator.engine import simulate


@pytest.fixture(scope="module")
def mp3d_trace():
    return APPS["mp3d"](n_procs=16, seed=0)


def test_diff_retention_and_gc(benchmark, mp3d_trace):
    """Peak retained diff bytes with and without barrier-time GC."""
    def runs():
        off = simulate(mp3d_trace, "LI", page_size=2048)
        on = simulate(mp3d_trace, "LI", page_size=2048, gc_at_barriers=True)
        return off, on

    off, on = benchmark.pedantic(runs, rounds=1, iterations=1)
    print()
    print(
        f"LI diff retention on MP3D: peak {off.counters['peak_retained_diff_bytes']/1024:.1f} kB "
        f"without GC, {on.counters['peak_retained_diff_bytes']/1024:.1f} kB with barrier GC "
        f"({on.counters['gc_collected_bytes']/1024:.1f} kB reclaimed over "
        f"{on.counters['gc_runs']} collections)"
    )
    assert on.counters["peak_retained_diff_bytes"] < off.counters["peak_retained_diff_bytes"]
    # GC is pure memory accounting: traffic identical.
    assert on.messages == off.messages and on.data_bytes == off.data_bytes


def test_estimated_runtime_cost(benchmark, mp3d_trace):
    """§7 future work: protocol cost under a message-dominated model."""
    def runs():
        return {
            p: simulate(mp3d_trace, p, page_size=2048)
            for p in ("LI", "LU", "EI", "EU")
        }

    results = benchmark.pedantic(runs, rounds=1, iterations=1)
    link = LinkModel.ethernet_1992()
    print()
    print("estimated communication cost, 1992 Ethernet-class constants:")
    estimates = {}
    for name, result in results.items():
        estimates[name] = estimate_runtime(result, link)
        print("  " + estimates[name].format())
    # With 1 ms messages and 10 Mbit wire, LRC's extra bookkeeping is
    # dwarfed by the message savings: LI cheapest end to end.
    assert estimates["LI"].total_seconds == min(
        e.total_seconds for e in estimates.values()
    )
    # And the lazy bookkeeping term is visible but small (<30% of total).
    assert estimates["LI"].bookkeeping_seconds < 0.3 * estimates["LI"].total_seconds