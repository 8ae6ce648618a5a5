"""Timed-run analysis: completion times and stall decomposition.

The paper counts messages and bytes; §7 leaves "the runtime cost of the
algorithm" to future work. The timed run mode
(:attr:`~repro.config.SimConfig.link_model`) closes that gap by
simulation, and this module renders its output: a per-protocol table of
simulated completion time, busy fraction, and the stall decomposition
(:data:`~repro.network.timed.TIMED_STALL_CATEGORIES` — the same
vocabulary the critical-path analyzer uses for its ``serialization``
and ``retransmit`` buckets), plus the per-processor detail for one run.

``lrc-sim report --timing`` prints both; sweeps surface the same
numbers per grid cell through ``SweepResult.rollup_table`` and the
``--rollups-csv`` export.

:func:`estimate_runtime` is the quick post-hoc alternative (``lrc-sim
compare``): a serial lower bound from a finished run's message and byte
totals under a link's constants — deliberately a *model*, whose
absolute values are only as good as the constants, but protocol
*rankings* under a cost model are exactly what the paper left open.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.network.link import PRESET_CONSTANTS, LinkModel
from repro.network.timed import TIMED_STALL_CATEGORIES
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.trace.stream import TraceStream

logger = logging.getLogger(__name__)


def run_timed(
    trace: TraceStream,
    protocol: str,
    link: LinkModel,
    page_size: int = 4096,
    config: Optional[SimConfig] = None,
) -> SimulationResult:
    """One timed run; ``result.timing`` carries the completion report."""
    if config is None:
        config = SimConfig(n_procs=trace.n_procs, page_size=page_size)
    else:
        config = config.with_page_size(page_size)
    return simulate(trace, protocol, config=config.with_options(link_model=link))


def compare_timed(
    trace: TraceStream,
    link: LinkModel,
    protocols: Optional[Sequence[str]] = None,
    page_size: int = 4096,
    config: Optional[SimConfig] = None,
) -> Dict[str, SimulationResult]:
    """Every protocol's timed run over one trace and one link.

    The returned dict preserves protocol order; ledgers are identical
    to counting runs (timed mode never changes what is sent), so the
    comparison isolates how each protocol's *message pattern* costs
    time on an imperfect network.
    """
    protocols = list(protocols) if protocols else all_protocol_names()
    results: Dict[str, SimulationResult] = {}
    for protocol in protocols:
        t0 = time.perf_counter()
        results[protocol] = run_timed(trace, protocol, link, page_size, config)
        logger.info(
            "timed %s: %.3fs simulated in %.3fs wall",
            protocol,
            results[protocol].timing["completion_s"],  # type: ignore[index]
            time.perf_counter() - t0,
        )
    return results


def timing_rows(results: Dict[str, SimulationResult]) -> List[Dict[str, object]]:
    """Flat per-protocol rows (table/CSV shape) from timed results.

    One dict per protocol: ``completion_s``, ``busy_s``, one
    ``stall_<category>_s`` column per timed stall category (summed
    across processors), ``retries``, and the message count. Results
    without a timing report (counting runs) are skipped.
    """
    rows: List[Dict[str, object]] = []
    for protocol, result in results.items():
        timing = result.timing
        if timing is None:
            continue
        stalls: Dict[str, float] = timing["stall_s"]  # type: ignore[assignment]
        row: Dict[str, object] = {
            "protocol": protocol,
            "completion_s": timing["completion_s"],
            "busy_s": timing["busy_s"],
        }
        for name in TIMED_STALL_CATEGORIES:
            row[f"stall_{name}_s"] = stalls.get(name, 0.0)
        row["retries"] = timing["retries"]
        row["messages"] = result.messages
        rows.append(row)
    return rows


def format_timing_table(
    results: Dict[str, SimulationResult],
    title: str = "simulated completion by protocol",
) -> str:
    """The per-protocol completion/stall table (milliseconds).

    Stall columns are proc-seconds summed across processors — the same
    accounting the per-run detail closes per processor
    (``finish == busy + Σ stalls``) — so a protocol whose completion
    is dominated by one category shows it directly.
    """
    rows = timing_rows(results)
    lines = [title, "-" * len(title)]
    if not rows:
        lines.append("(no timed results; run with a link model configured)")
        return "\n".join(lines)
    stall_cols = [f"stall_{name}_s" for name in TIMED_STALL_CATEGORIES]
    header = f"{'proto':<6}{'completion':>12}{'busy':>10}"
    header += "".join(f"{name:>14}" for name in TIMED_STALL_CATEGORIES)
    header += f"{'retries':>9}{'msgs':>9}"
    lines.append(header)
    lines.append(f"{'':<6}{'(ms)':>12}{'(ms)':>10}" + f"{'(proc-ms)':>14}" * len(stall_cols))
    for row in rows:
        cells = f"{row['protocol']:<6}{row['completion_s'] * 1e3:>12.3f}{row['busy_s'] * 1e3:>10.3f}"
        cells += "".join(f"{row[col] * 1e3:>14.3f}" for col in stall_cols)
        cells += f"{row['retries']:>9}{row['messages']:>9}"
        lines.append(cells)
    return "\n".join(lines)


def format_timing_detail(timing: Dict[str, object], per_proc_limit: int = 32) -> str:
    """One timed run's detail: link, totals, and per-processor closure.

    ``timing`` is the report dict a timed :class:`SimulationResult`
    carries (see :meth:`repro.network.timed.NetworkTiming.report`).
    """
    link: Dict[str, object] = timing["link"]  # type: ignore[assignment]
    completion: float = timing["completion_s"]  # type: ignore[assignment]
    stalls: Dict[str, float] = timing["stall_s"]  # type: ignore[assignment]
    title = "timed network model"
    lines = [title, "-" * len(title)]
    configured = " ".join(f"{key}={value}" for key, value in link.items() if value)
    lines.append(f"link: {configured or 'ideal'}")
    lines.append(f"network_seed={timing['network_seed']}")
    lines.append(
        f"completion={completion * 1e3:.3f}ms busy={timing['busy_s'] * 1e3:.3f}ms "
        f"timed_msgs={timing['messages']} retries={timing['retries']}"
    )
    total_stall = sum(stalls.values())
    if total_stall > 0.0:
        lines.append("stall decomposition (proc-seconds, all processors):")
        for name in TIMED_STALL_CATEGORIES:
            value = stalls.get(name, 0.0)
            if value:
                lines.append(
                    f"  {name:<14}{value * 1e3:>12.3f}ms {100.0 * value / total_stall:>6.1f}%"
                )
    per_proc: List[Dict[str, object]] = timing["per_proc"]  # type: ignore[assignment]
    lines.append(f"{'proc':>5}{'finish ms':>12}{'busy ms':>10}  dominant stall")
    for row in per_proc[:per_proc_limit]:
        proc_stalls: Dict[str, float] = row["stall_s"]  # type: ignore[assignment]
        if proc_stalls:
            dominant, value = max(proc_stalls.items(), key=lambda item: item[1])
            tail = f"{dominant} ({value * 1e3:.3f}ms)"
        else:
            tail = "-"
        lines.append(
            f"{row['proc']:>5}{row['finish_s'] * 1e3:>12.3f}"  # type: ignore[operator]
            f"{row['busy_s'] * 1e3:>10.3f}  {tail}"  # type: ignore[operator]
        )
    if len(per_proc) > per_proc_limit:
        lines.append(f"  ... {len(per_proc) - per_proc_limit} more processors")
    return "\n".join(lines)


@dataclass
class TimingEstimate:
    """Estimated communication cost of one simulation run."""

    protocol: str
    message_seconds: float
    byte_seconds: float
    diff_seconds: float
    bookkeeping_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.message_seconds
            + self.byte_seconds
            + self.diff_seconds
            + self.bookkeeping_seconds
        )

    def breakdown(self) -> Dict[str, float]:
        return {
            "messages": self.message_seconds,
            "bytes": self.byte_seconds,
            "diffs": self.diff_seconds,
            "bookkeeping": self.bookkeeping_seconds,
        }

    def format(self) -> str:
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self.breakdown().items())
        return f"{self.protocol}: {self.total_seconds:.3f}s ({parts})"


def estimate_runtime(
    result: SimulationResult, link: LinkModel, preset: str = "ethernet_1992"
) -> TimingEstimate:
    """Estimate the communication seconds of one finished run.

    The wire constants come from ``link`` — ``overhead_s + latency_s``
    per message (the §1 software overhead that makes DSM messages
    expensive), ``per_byte_s`` per payload+control byte. The CPU
    constants the link model does not carry (making a diff, applying a
    fetched one, and the interval bookkeeping at a special access that
    is LRC's "more complex to implement" overhead) come from
    :data:`~repro.network.link.PRESET_CONSTANTS` ``[preset]``.
    """
    constants = PRESET_CONSTANTS[preset]
    return TimingEstimate(
        protocol=result.protocol,
        message_seconds=result.messages * (link.overhead_s + link.latency_s),
        byte_seconds=(result.data_bytes + result.control_bytes) * link.per_byte_s,
        diff_seconds=(
            _diffs_created(result) * constants["diff_create_s"]
            + result.diffs_fetched * constants["diff_apply_s"]
        ),
        bookkeeping_seconds=result.counters.get("intervals_closed", 0)
        * constants["interval_s"],
    )


def _diffs_created(result: SimulationResult) -> int:
    """Diff creations: flush count for eager, fetched diffs bound lazy.

    Lazy protocols create a diff per (modified page, interval); the
    simulator's ``diffs_fetched`` counts each transferred diff once per
    fetch, an upper bound on distinct creations actually needed. Eager
    protocols diff every dirty page per flush.
    """
    if result.counters.get("flushes") is not None:
        return result.counters.get("flushes", 0)
    return result.diffs_fetched


def compare_runtimes(
    results: Dict[str, SimulationResult], link: LinkModel, preset: str = "ethernet_1992"
) -> Dict[str, TimingEstimate]:
    """Estimate every protocol's cost under one link and preset."""
    return {
        name: estimate_runtime(result, link, preset) for name, result in results.items()
    }
