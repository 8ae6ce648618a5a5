"""Simulation configuration (lives outside the simulator package so the
protocol layer can depend on it without importing the engine).

One :class:`SimConfig` fully determines a protocol simulation run:
processor count, page size, cost model, and the protocol options the
paper leaves as design choices (the diff-to-invalid-copy optimization of
§4.3.3, the overwritten-diff pruning, ack counting via the cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.types import check_page_size
from repro.network.costs import CostModel
from repro.network.link import LinkModel


#: Page sizes swept in the paper's figures (bytes).
PAPER_PAGE_SIZES = (512, 1024, 2048, 4096, 8192)

#: Processor count used for the paper's traces.
PAPER_N_PROCS = 16


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one protocol simulation.

    Attributes:
        n_procs: number of processors (the paper uses 16).
        page_size: consistency-unit size in bytes; power of two.
        cost_model: wire sizes and ack-counting policy.
        skip_overwritten_diffs: prune diffs whose every word is rewritten
            by a later (hb) diff in the needed set (§4.3's "no interval k
            ... in which the modification from interval j was overwritten").
        diff_to_invalid_copy: LRC's §4.3.3 optimization — when a stale
            copy is still cached, fetch only diffs instead of the page.
            Turning this off forces a full-page fetch on every lazy miss
            (used by the ablation bench).
        free_local_lock_reacquire: a processor re-acquiring the lock it
            last released exchanges no messages (the find-and-transfer
            hops are local). The paper charges remote acquires three
            messages; local ones have nothing to find or transfer.
        piggyback_notices: carry write notices on the lock-grant and
            barrier messages (§4.1: "The modifications can be piggybacked
            on the message that grants the lock"). Turning this off sends
            each notice batch as its own message — the ablation
            quantifying what piggybacking saves.
        gc_at_barriers: run the lazy protocols' diff garbage collector at
            every barrier episode. LRC retains every interval's diffs
            (the paper assumes infinite memory, §5.1; TreadMarks added
            collection later). The collector reclaims diffs that every
            processor has seen, nobody still has pending, and a globally
            known later diff of the same page dominates — and the
            ``retained_diff_bytes`` counters quantify LRC's memory cost
            either way.
        record_values: record the values returned by every read so the
            consistency checker can audit the run (memory-proportional to
            the number of reads; off for large sweeps). Values exist
            only on the per-event interpreter, so recording them is what
            selects it — no field names an execution path (see the path
            table in ``docs/OBSERVABILITY.md``).
        link_model: when set, the run is *timed*: per-processor virtual
            clocks are advanced from this
            :class:`~repro.network.link.LinkModel` (latency, jitter,
            bandwidth, loss→timeout→retry) and the result carries a
            ``timing`` report (simulated completion time, busy/stall
            decomposition, retry counts) alongside the counts. None
            (the default) is counting mode. The ledgers are identical
            either way — timing is an observer, never an actor — so
            what the clocks consume (every send and compute charge, in
            order) does not depend on the link. Every timed run takes
            the counting run's own path (the tape when certified) plus
            one fold over the cell's log; the first one of a cell
            records the log on the way, every later one under any link
            reuses it (see :mod:`repro.network.timed`).
    """

    n_procs: int = PAPER_N_PROCS
    page_size: int = 4096
    cost_model: CostModel = field(default_factory=CostModel)
    skip_overwritten_diffs: bool = True
    diff_to_invalid_copy: bool = True
    free_local_lock_reacquire: bool = True
    piggyback_notices: bool = True
    gc_at_barriers: bool = False
    record_values: bool = False
    link_model: Optional[LinkModel] = None

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ConfigError(f"n_procs must be >= 1, got {self.n_procs}")
        check_page_size(self.page_size)

    def with_page_size(self, page_size: int) -> "SimConfig":
        """A copy of this config at a different page size."""
        return replace(self, page_size=page_size)

    def with_options(self, **kwargs) -> "SimConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
