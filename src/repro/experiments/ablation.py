"""Ablations of the paper's design choices.

Not figures from the paper — these quantify, on our workloads, the value
of individual mechanisms the paper calls out:

- §4.3.3's diff-to-invalid-copy optimization (vs full-page refetch),
- §4.1's piggybacking of write notices on lock/barrier messages,
- the ack-counting convention the OCR of Table 1 leaves ambiguous,
- §5.8's claim that false sharing widens the lazy/eager gap with page
  size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.apps import APPS
from repro.apps.synthetic import false_sharing
from repro.network.costs import CostModel
from repro.config import SimConfig
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.trace.stream import TraceStream


@dataclass
class AblationResult:
    """Paired on/off runs of one mechanism."""

    name: str
    protocol: str
    on: SimulationResult
    off: SimulationResult

    @property
    def message_saving(self) -> float:
        """Fraction of messages the mechanism saves."""
        if self.off.messages == 0:
            return 0.0
        return 1.0 - self.on.messages / self.off.messages

    @property
    def data_saving(self) -> float:
        """Fraction of data bytes the mechanism saves."""
        if self.off.data_bytes == 0:
            return 0.0
        return 1.0 - self.on.data_bytes / self.off.data_bytes

    def format(self) -> str:
        return (
            f"{self.name} [{self.protocol}]: messages {self.off.messages} -> "
            f"{self.on.messages} ({self.message_saving:+.1%}), data "
            f"{self.off.data_kbytes:.1f} -> {self.on.data_kbytes:.1f} kB "
            f"({self.data_saving:+.1%})"
        )


def _app_trace(app: str, n_procs: int, seed: int) -> TraceStream:
    return APPS[app](n_procs=n_procs, seed=seed)


def run_diff_ablation(
    app: str = "locusroute",
    protocol: str = "LI",
    page_size: int = 4096,
    n_procs: int = 8,
    seed: int = 0,
    trace: Optional[TraceStream] = None,
) -> AblationResult:
    """§4.3.3: fetch diffs into a kept stale copy vs refetch whole pages."""
    trace = trace or _app_trace(app, n_procs, seed)
    on = simulate(trace, protocol, page_size=page_size, diff_to_invalid_copy=True)
    off = simulate(trace, protocol, page_size=page_size, diff_to_invalid_copy=False)
    return AblationResult("diff-to-invalid-copy", protocol, on, off)


def run_piggyback_ablation(
    app: str = "locusroute",
    protocol: str = "LI",
    page_size: int = 4096,
    n_procs: int = 8,
    seed: int = 0,
    trace: Optional[TraceStream] = None,
) -> AblationResult:
    """§4.1: notices on the lock-grant/barrier messages vs separately."""
    trace = trace or _app_trace(app, n_procs, seed)
    on = simulate(trace, protocol, page_size=page_size, piggyback_notices=True)
    off = simulate(trace, protocol, page_size=page_size, piggyback_notices=False)
    return AblationResult("notice-piggybacking", protocol, on, off)


def run_ack_ablation(
    app: str = "locusroute",
    protocol: str = "EU",
    page_size: int = 4096,
    n_procs: int = 8,
    seed: int = 0,
    trace: Optional[TraceStream] = None,
) -> AblationResult:
    """Sensitivity of the eager protocols to counting release acks."""
    trace = trace or _app_trace(app, n_procs, seed)
    with_acks = SimConfig(n_procs=trace.n_procs, page_size=page_size)
    without = replace(
        with_acks, cost_model=replace(with_acks.cost_model, count_acks=False)
    )
    on = simulate(trace, protocol, config=without)  # "on" = paper-literal c/u
    off = simulate(trace, protocol, config=with_acks)
    return AblationResult("uncounted-acks", protocol, on, off)


def run_false_sharing_sweep(
    n_procs: int = 8,
    seed: int = 0,
    page_sizes: Optional[List[int]] = None,
    rounds: int = 24,
) -> Dict[int, Dict[str, SimulationResult]]:
    """§5.8: the lazy/eager gap vs page size under pure false sharing.

    Returns {page_size: {protocol: result}} for a workload whose only
    sharing is false (per-processor counters packed onto common pages).
    """
    sizes = page_sizes or [256, 512, 1024, 2048, 4096]
    trace = false_sharing(n_procs=n_procs, seed=seed, rounds=rounds, words_per_proc=8)
    out: Dict[int, Dict[str, SimulationResult]] = {}
    for page_size in sizes:
        out[page_size] = {
            protocol: simulate(trace, protocol, page_size=page_size)
            for protocol in ("LI", "LU", "EI", "EU")
        }
    return out
