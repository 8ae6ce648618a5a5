"""End-to-end release-consistency checking.

Definition 1 / the properly-labeled-programs theorem (§2): on RC memory a
properly labeled (race-free) program must see exactly the results it
would see on sequentially consistent memory — every read returns the
value of the happened-before-latest write to that location.

The simulator tags each written word with the write event's global
sequence number, and (with ``record_values``) records what every read
observed. This module recomputes, from the trace alone, the expected
token for every read via event-level vector clocks, and compares.

Races are detected and excluded from validation (a racy read may
legitimately return either value); the workload kernels are written to
be race-free, which the tests assert separately via
:meth:`repro.hb.graph.HbGraph.races`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConsistencyViolation
from repro.common.types import WORD_SIZE
from repro.hb.graph import HbGraph
from repro.config import SimConfig
from repro.simulator.engine import Engine
from repro.simulator.results import SimulationResult
from repro.trace.events import EventType
from repro.trace.stream import TraceStream


@dataclass
class _WriteRecord:
    """A write on the per-word frontier."""

    seq: int
    proc: int
    position: int  # program-order index of the event on its processor


@dataclass
class CheckReport:
    """Outcome of auditing one simulation run."""

    protocol: str
    page_size: int
    reads_checked: int = 0
    reads_racy: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_on_failure(self) -> None:
        if self.violations:
            preview = "\n  ".join(self.violations[:10])
            raise ConsistencyViolation(
                f"{self.protocol} @ page_size={self.page_size}: "
                f"{len(self.violations)} stale reads:\n  {preview}"
            )


def check_consistency(trace: TraceStream, result: SimulationResult) -> CheckReport:
    """Audit one simulation result against the trace's hb order.

    ``result.read_values`` must be present (run with ``record_values``).
    """
    if result.read_values is None:
        raise ValueError("simulation was run without record_values=True")
    hb = HbGraph(trace)
    report = CheckReport(protocol=result.protocol, page_size=result.page_size)
    # Per word address: frontier of writes none of which hb-dominates another.
    frontier: Dict[int, List[_WriteRecord]] = {}
    observed = dict(result.read_values)

    for event in trace:
        if not event.type.is_ordinary:
            continue
        assert event.addr is not None and event.size is not None
        first_word = event.addr // WORD_SIZE
        last_word = (event.addr + event.size - 1) // WORD_SIZE
        words = [w * WORD_SIZE for w in range(first_word, last_word + 1)]
        if event.type == EventType.WRITE:
            record = _WriteRecord(
                seq=event.seq, proc=event.proc, position=hb.positions[event.seq]
            )
            for word in words:
                entries = frontier.setdefault(word, [])
                entries[:] = [
                    w for w in entries if not _hb_before(hb, w, event.seq)
                ]
                entries.append(record)
            continue

        values = observed.get(event.seq)
        if values is None:
            continue
        for word, value in zip(words, values):
            expected, racy = _expected_token(hb, frontier.get(word, []), event.seq)
            if racy:
                report.reads_racy += 1
                continue
            report.reads_checked += 1
            if value != expected:
                report.violations.append(
                    f"read seq={event.seq} p{event.proc} word={word:#x}: "
                    f"observed {value}, expected {expected}"
                )
    return report


def _hb_before(hb: HbGraph, write: _WriteRecord, seq: int) -> bool:
    """True if ``write`` happened-before event ``seq``."""
    return hb.clocks[seq][write.proc] >= write.position + 1


def _expected_token(
    hb: HbGraph, entries: List[_WriteRecord], read_seq: int
) -> Tuple[int, bool]:
    """The unique hb-latest write token for this read, or a race flag.

    The frontier only holds writes not hb-dominated by later writes, so
    the hb-latest write (if the program is race-free up to this read) is
    the unique frontier entry that happened-before the read. Zero frontier
    hits with a non-empty frontier, or multiple hits, indicate a race
    involving this word.
    """
    candidates = [w for w in entries if _hb_before(hb, w, read_seq)]
    if len(candidates) == 1 and len(candidates) == len(entries):
        return candidates[0].seq, False
    if not entries:
        return 0, False  # never written: initial zero
    if len(candidates) == 1:
        # Some frontier writes are concurrent with the read: racy word.
        return candidates[0].seq, True
    return 0, True


def check_protocol(
    trace: TraceStream,
    protocol: str,
    page_size: int = 1024,
    config: Optional[SimConfig] = None,
) -> CheckReport:
    """Simulate ``trace`` under ``protocol`` and audit it in one call."""
    base = config or SimConfig(n_procs=trace.n_procs)
    run_config = base.with_options(page_size=page_size, record_values=True)
    result = Engine(trace, run_config, protocol).run()
    report = check_consistency(trace, result)
    report.raise_on_failure()
    return report
