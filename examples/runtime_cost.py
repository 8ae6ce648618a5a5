#!/usr/bin/env python3
"""Simulate LRC's runtime cost — the paper's stated future work (§7).

"We intend to implement LRC to evaluate its runtime cost. The message
and data reductions seen in our simulations seem to indicate that LRC
will outperform eager RC in a software DSM environment."

This example closes that loop with the timed run mode: the same replay
that produces the paper's message and byte counts also records every
message's send order, and per-processor virtual clocks advanced over
that record — per-message software overhead, wire serialization and
queueing, per-word compute — give a simulated completion time and a
stall decomposition per protocol. Under 1992-class constants the lazy
protocols finish first, comfortably, and the ranking holds on a modern
cluster.

Every run below takes the counting runs' tape path and writes its send
order on the way; the order does not depend on the link. A cell keeps
what a run writes only once the cell was run before, so the first
link's runs keep no log and the second link's record theirs again and
keep them: a third link would only fold its clocks over the kept logs.

Run:  python examples/runtime_cost.py
"""

from repro.analysis.timing_report import compare_timed, format_timing_table
from repro.apps import mp3d
from repro.network.link import LinkModel

PROTOCOLS = ("LI", "LU", "EI", "EU")


def show(title: str, trace, link: LinkModel) -> None:
    results = compare_timed(trace, link, protocols=PROTOCOLS, page_size=2048)
    print(format_timing_table(results, title=title))
    baseline = results["EI"].timing["completion_s"]
    ratios = "  ".join(
        f"{p} {results[p].timing['completion_s'] / baseline:.2f}x" for p in PROTOCOLS
    )
    logs = {r.manifest.get("record", {}).get("log", "unkept") for r in results.values()}
    print(f"completion vs EI: {ratios}   [send logs {'/'.join(sorted(logs))}]\n")


def main() -> None:
    print("generating a 16-processor MP3D trace ...")
    trace = mp3d.generate(n_procs=16, seed=3)
    print(f"  {trace!r}\n")

    show(
        "1992 Ethernet-class link (1 ms/message, 10 Mbit/s)",
        trace,
        LinkModel.ethernet_1992(),
    )
    show(
        "modern cluster link (5 us/message, ~10 GB/s)",
        trace,
        LinkModel.modern_cluster(),
    )
    print(
        "Fewer, smaller messages mean less sender overhead and less time\n"
        "queued behind the wire — the paper's conjecture, simulated."
    )


if __name__ == "__main__":
    main()
