"""The trace-driven simulation engine.

Replays a globally ordered trace against one protocol instance. Ordinary
accesses are split at page boundaries (the trace is page-size
independent); special accesses invoke the protocol's synchronization
paths. Every write is tagged with its event sequence number as a unique
token, which is what the consistency checker later audits.

The hot loop dispatches on a precompiled instruction list (see
:mod:`repro.trace.precompile`): page splits are computed once per
(trace, page size) and shared by every protocol replay at that page
size, and the single-page common case reaches the protocol without any
per-event list building. Which loop replays a run follows from what it
observes (:func:`~repro.protocols.base.certify_replay`; path table in
``docs/OBSERVABILITY.md``). Every path must produce bit-identical
:class:`SimulationResult` fields; the suite asserts it against the test
oracle, ``tests/reference_oracle.py::ReferenceEngine``.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Iterable, List, Optional, Tuple, Type, Union

from repro.common.errors import ConfigError, SimulatorError
from repro.common.gcpause import gc_paused
from repro.hb.skeleton import CellRecord, batch_plan, plan_stats
from repro.network.link import derive_network_seed
from repro.network.timed import NetworkTiming, SendLog
from repro.obs.manifest import build_manifest
from repro.obs.probe import Probe
from repro.obs.spans import SpanProbe, SpanRecords
from repro.protocols.base import Protocol, certify_replay
from repro.protocols.registry import protocol_class
from repro.config import SimConfig
from repro.simulator.results import SimulationResult
from repro.trace.events import TYPE_CODES, EventType
from repro.trace.precompile import (
    OP_ACQUIRE,
    OP_BARRIER,
    OP_READ,
    OP_READ_N,
    OP_RELEASE,
    OP_WRITE,
    OP_WRITE_N,
    CompiledTrace,
)
from repro.trace.stream import TraceStream
from repro.trace.validate import validate_trace

logger = logging.getLogger(__name__)

_BARRIER = TYPE_CODES[EventType.BARRIER]


def _reentered_barrier(trace: TraceStream) -> Optional[int]:
    """A barrier some processor of ``trace`` arrives at twice, or None."""
    arrived = set()
    for code, proc, barrier in zip(*trace.columns()[:3]):
        if code == _BARRIER:
            if (proc, barrier) in arrived:
                return barrier
            arrived.add((proc, barrier))
    return None


class Engine:
    """Runs one trace through one protocol."""

    def __init__(
        self,
        trace: TraceStream,
        config: SimConfig,
        protocol: Union[str, Type[Protocol]],
        validate: bool = False,
        compiled: Optional[CompiledTrace] = None,
        probe: Optional[Probe] = None,
    ):
        if trace.n_procs > config.n_procs:
            raise ConfigError(
                f"trace uses {trace.n_procs} processors but config allows "
                f"{config.n_procs}"
            )
        # Wider than the trace, no barrier episode ever completes: the
        # processors the trace lacks never arrive.
        barrier = _reentered_barrier(trace) if trace.n_procs < config.n_procs else None
        if barrier is not None:
            raise ConfigError(
                f"trace uses {trace.n_procs} processors but config simulates {config.n_procs}: "
                f"barrier {barrier} is re-entered, and no episode completes without them all"
            )
        if compiled is not None and compiled.page_size != config.page_size:
            raise ValueError(
                f"compiled trace is specialized for {compiled.page_size}-byte "
                f"pages but config.page_size is {config.page_size}"
            )
        self.trace = trace
        self.config = config
        cls = protocol_class(protocol) if isinstance(protocol, str) else protocol
        self.protocol: Protocol = cls(config)
        self.probe = probe
        if probe is not None and probe.enabled:
            self.protocol.attach_probe(probe)
        #: Timed runs: the folded clocks.
        self._timing: Optional[NetworkTiming] = None
        #: The cell's record when it was run before (see _use_record),
        #: and each part of it this run ``recorded`` or ``reused``.
        self._record: Optional[CellRecord] = None
        self._record_parts: Dict[str, str] = {}
        #: The loop that produced the ledger and, unless it was the tape
        #: replay, why not (see :func:`certify_replay`).
        self._execution_path = "per_event"
        self._decline_reason: Optional[str] = None
        self._compiled = compiled
        self._ran = False
        if validate:
            validate_trace(trace)

    def _claim_run(self) -> None:
        if self._ran:
            raise SimulatorError(
                "Engine.run() may only be called once: the protocol instance "
                "carries state, so a second replay would double-count all "
                "traffic. Build a new Engine (or call simulate()) per run."
            )
        self._ran = True
        # Snapshot the plan/tape cache counters so _result can put this
        # run's delta (builds vs. hits) into the provenance manifest.
        self._plan_stats_before = plan_stats()

    @gc_paused()
    def run(self) -> SimulationResult:
        """Replay the whole trace and return the accounting.

        A timed run (``config.link_model`` set) is the counting run plus
        a fold: the ledger comes from the same dispatch a counting run
        of this cell takes, and the virtual clocks from
        :meth:`NetworkTiming.fold <repro.network.timed.NetworkTiming.fold>`
        over the cell's send log, written on the way from the loop that
        supplies its ledger, so nothing runs twice and nothing switches
        loops. A tape run under a sink or a span probe may likewise write
        the cell's record stream (:class:`~repro.obs.spans.SpanRecords`),
        and a lazy cell's tape run its priced tape. Which of them the run
        reads from its cell's record, writes, or writes and keeps is one
        decision (:meth:`_use_record`).

        Runs with the cyclic collector paused, restored on exit: a run
        makes no reference cycles (``tests/test_no_cyclic_garbage.py``).
        """
        self._claim_run()
        timings: Dict[str, float] = {}
        compiled = self._compiled
        if compiled is None:
            t0 = time.perf_counter()
            compiled = self.trace.compiled(self.config.page_size)
            timings["compile_s"] = time.perf_counter() - t0
        config = self.config
        protocol = self.protocol
        read_values = priced = None
        plan = log = stream = None
        ops = compiled.ops
        self._execution_path, self._decline_reason = certify_replay(protocol)
        tape = self._execution_path == "tape"
        if tape and (protocol._obs_events or protocol.lazy) or config.link_model is not None:
            plan = self._plan(compiled)
            log, stream = self._use_record(plan, tape)
        elif protocol.lazy:
            plan = self._plan(compiled)  # the skeleton the hooks replay
        writes_log = protocol._log is not None
        if writes_log:
            ops = log.track(ops, range(len(ops)))
        parts = self._record_parts
        try:
            if tape:
                priced = self._run_tape(compiled, timings, plan)
            else:
                read_values = self._run_per_event(ops, timings, plan)
        except BaseException:
            if stream is not None and parts.get("stream") != "reused":
                # What the run wrote before the raise reaches the sinks,
                # as staged rows would on close; it is not kept.
                self.probe.replay_stream(stream)
            raise
        record = self._record
        if priced is not None:
            record.keep("priced", priced)
        if writes_log:
            t0 = time.perf_counter()
            log.close(compiled.ops)
            if parts.get("log") == "recorded":
                record.keep("log", log)
            timings["record_s"] = elapsed = time.perf_counter() - t0
            timings["simulate_s"] += elapsed
        if stream is not None:
            t0 = time.perf_counter()
            if parts.get("stream") == "recorded":
                record.keep("stream", stream.freeze())
            self.probe.replay_stream(stream)
            timings["observe_s"] = elapsed = time.perf_counter() - t0
            timings["simulate_s"] += elapsed
        if log is not None:
            self._fold(log, timings)
        return self._result(read_values, timings)

    def _use_record(self, plan, tape: bool) -> Tuple[Optional[SendLog], Optional[SpanRecords]]:
        """The run's one recording decision. For each part of its cell's
        :class:`~repro.hb.skeleton.CellRecord` the run needs, read the
        kept one, or write it — and keep it when the cell was run before.
        Returns the send log a timed run folds and the record stream a
        tape run hands its probe, each or None.

        * ``stream``, a tape run under a sink or a span probe: a reader
          emits nothing. A writer writes the stream, save a sink's first
          run of the cell, which writes to its probe directly as the
          hooks would (its sinks drain per epoch).
        * ``log``, a timed run: a writer tracks every message.
        * ``priced``, a lazy tape run: one that writes nothing — no
          event, stream or send log — reads (folds) a kept one; else its
          kernels record one when the cell was run before.

        A probe whose ``emit`` is patched on the instance has it called
        for every event, so such a run neither reads nor writes the record.
        """
        protocol, probe, config = self.protocol, self.probe, self.config
        observed = tape and protocol._obs_events
        patched = observed and "emit" in vars(probe)
        record = None
        if not patched:
            # Everything that can change send order, wire sizes or an
            # event is in the key; the link, which only the fold reads,
            # is not.
            key = config if config.link_model is None else config.with_options(link_model=None)
            record = plan.cell_record((type(protocol), key))
        self._record = record
        log = stream = None
        if observed:
            stream = self._kept("stream")
            if stream is not None:
                protocol.observe_on_tape(None, None)
            elif record is not None or (not patched and isinstance(probe, SpanProbe)):
                stream = SpanRecords()
                protocol.observe_on_tape(stream, stream.emit)
            else:
                records = probe.records if isinstance(probe, SpanProbe) else None
                protocol.observe_on_tape(records, probe.emit)
        if config.link_model is not None:
            log = self._kept("log")
            if log is None:
                log = SendLog(config.cost_model.header_bytes)
                protocol.record_sends(log)
        if tape and protocol.lazy and record is not None:
            if record.priced is None or not protocol._obs_events and protocol._tap is None:
                priced = self._kept("priced")
                if priced is None:
                    protocol.record_priced()
                else:
                    protocol.fold_priced(priced)
        return log, stream

    def _kept(self, part: str):
        """The kept ``part`` of the cell's record, which the run reads
        (``reused``); else None, and the run writes the part — and keeps
        it (``recorded``) when the cell was run before."""
        record = self._record
        if record is None:
            return None
        value = record.read(part)
        self._record_parts[part] = "recorded" if value is None else "reused"
        return value

    def _plan(self, compiled: CompiledTrace):
        """The cell's batch plan, sized by the config like the protocol."""
        return batch_plan(compiled, self.config.n_procs)

    def _fold(self, log: SendLog, timings: Dict[str, float]) -> None:
        """Advance the virtual clocks over ``log`` under the run's link.

        The RNG seed is derived from the workload seed, protocol, and
        link config (recorded in the manifest), so lossy runs replay
        exactly. A probe keeps the per-message delay log, which the
        span builder consumes in place of synthetic costs.
        """
        link = self.config.link_model
        seed = self.trace.meta.params.get("seed")
        probe = self.probe
        t0 = time.perf_counter()
        self._timing = timing = NetworkTiming(
            link,
            self.config.n_procs,
            derive_network_seed(
                int(seed) if seed is not None else None, self.protocol.name, link
            ),
            keep_delays=probe is not None and probe.enabled,
        )
        timing.fold(log)
        timings["fold_s"] = elapsed = time.perf_counter() - t0
        timings["simulate_s"] += elapsed

    def _run_per_event(
        self, ops: Iterable[tuple], timings: Dict[str, float], plan
    ) -> Optional[List[Tuple[int, List[int]]]]:
        """Interpret ``ops``, the compiled ops in trace order; returns the
        read values when recorded. A lazy protocol's hooks replay
        ``plan``'s skeleton (None for the eager family), as its tape
        kernels do."""
        protocol = self.protocol
        protocol.bind_interpreter()
        if protocol.lazy:
            protocol.bind_skeleton(plan)
        record = self.config.record_values
        read_values: Optional[List[Tuple[int, List[int]]]] = [] if record else None
        # Bind the protocol entry points once; the loop below runs for
        # every event of every sweep cell.
        read = protocol.read
        read_touch = protocol.read_touch
        write = protocol.write
        acquire = protocol.acquire
        release = protocol.release
        barrier = protocol.barrier

        t0 = time.perf_counter()
        # An op's position is its event's seq: the write token and the
        # recorded read's key.
        for seq, op in enumerate(ops):
            code = op[0]
            if code == OP_WRITE:
                write(op[1], op[2], op[3], seq)
            elif code == OP_READ:
                if record:
                    read_values.append((seq, read(op[1], op[2], op[3])))
                else:
                    read_touch(op[1], op[2])
            elif code == OP_ACQUIRE:
                acquire(op[1], op[2])
            elif code == OP_RELEASE:
                release(op[1], op[2])
            elif code == OP_BARRIER:
                barrier(op[1], op[2])
            elif code == OP_READ_N:
                if record:
                    values = []
                    for page, words in op[2]:
                        values.extend(read(op[1], page, words))
                    read_values.append((seq, values))
                else:
                    for page, _ in op[2]:
                        read_touch(op[1], page)
            else:  # OP_WRITE_N
                proc = op[1]
                for page, words in op[2]:
                    write(proc, page, words, seq)

        self._finish(timings, t0)
        return read_values

    def _finish(self, timings: Dict[str, float], t0: float) -> None:
        """The end of every loop: the protocol's finish hook, then the clock."""
        self.protocol.finish()
        timings["simulate_s"] = elapsed = time.perf_counter() - t0
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "replayed %s/%s (%s): %d events in %.3fs",
                self.trace.meta.app,
                self.protocol.name,
                self._execution_path,
                len(self.trace),
                elapsed,
            )

    def _run_tape(self, compiled: CompiledTrace, timings: Dict[str, float], plan):
        """Replay from the batch plan's tapes; returns what the run
        priced (a lazy recording run's :class:`~repro.hb.skeleton.PricedTape`),
        else None.

        Reached only when :func:`~repro.protocols.base.certify_replay`
        allows it — results are bit-identical to :meth:`_run_per_event`.
        ``bind_batch_plan`` returns the whole run as one callable: the
        lazy family walks the access-run program (see
        :mod:`repro.trace.runs`) over kernels that replay
        synchronization from the sync skeleton, or folds its cell's
        priced tape; the eager family folds its policy's priced tape, or
        walks its steps once when the run writes, and needs no run
        program at all.
        """
        t0 = time.perf_counter()
        if plan is None:
            plan = self._plan(compiled)
        # Binding is part of plan preparation (the run program and the
        # tapes are built here on first use), so it shares the timing
        # bucket.
        replay = self.protocol.bind_batch_plan(plan)
        timings["batch_plan_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        priced = replay()
        self._finish(timings, t0)
        return priced

    def _result(
        self, read_values, timings: Optional[Dict[str, float]] = None
    ) -> SimulationResult:
        protocol = self.protocol
        counters = {name: getattr(protocol, name) for name in protocol.result_counters}
        probe = self.probe
        metrics_snapshot = None
        if probe is not None and probe.enabled:
            registry = getattr(probe, "metrics", None)
            if registry is not None:
                metrics_snapshot = registry.snapshot()
        timing = self._timing
        timing_report = None
        network_manifest = None
        if timing is not None:
            timing_report = timing.report()
            network_manifest = {
                "network_seed": timing.network_seed,
                "link": timing.link.to_dict(),
            }
            if probe is not None and timing.delay_log is not None:
                # Hand the measured per-message delays to the span
                # builder (see timeline_from_records), replacing its
                # synthetic SpanCosts message charges.
                probe.link_delays = timing.delay_log
                probe.link_model = timing.link
        seed = self.trace.meta.params.get("seed")
        plan_cache = self._plan_cache_delta()
        record = self._record_parts
        built = plan_cache.get("priced_tape_builds")
        if built or plan_cache.get("priced_tape_hits"):
            # An eager policy's tape, priced by this run or folded (a
            # writing run walks its steps and touches no tape).
            record["priced"] = "recorded" if built else "reused"
        return SimulationResult(
            app=self.trace.meta.app,
            protocol=protocol.name,
            page_size=self.config.page_size,
            n_procs=self.config.n_procs,
            stats=protocol.network.stats,
            events=len(self.trace),
            cold_misses=protocol.cold_misses,
            invalid_misses=protocol.invalid_misses,
            diffs_fetched=protocol.diffs_fetched,
            diff_bytes_fetched=protocol.diff_bytes_fetched,
            counters=counters,
            read_values=read_values,
            seed=int(seed) if seed is not None else None,
            trace_digest=self.trace.digest(),
            manifest=build_manifest(
                self.trace,
                self.config,
                timings,
                plan_cache=plan_cache,
                network=network_manifest,
                execution_path=self._execution_path,
                decline_reason=self._decline_reason,
                record=record,
            ),
            metrics=metrics_snapshot,
            timing=timing_report,
        )

    def _plan_cache_delta(self) -> Dict[str, int]:
        """Plan/tape cache activity attributable to this run alone."""
        before = self._plan_stats_before
        return {
            key: value - before[key]
            for key, value in plan_stats().items()
            if value != before[key]
        }


def simulate(
    trace: TraceStream,
    protocol: Union[str, Type[Protocol]],
    config: Optional[SimConfig] = None,
    probe: Optional[Probe] = None,
    **config_overrides,
) -> SimulationResult:
    """One-call simulation: ``simulate(trace, "LI", page_size=1024)``.

    ``config_overrides`` are applied on top of ``config`` (or a default
    config sized to the trace's processor count). Pass a
    :class:`~repro.obs.probe.RecordingProbe` as ``probe`` to collect
    telemetry; the result then carries a metrics snapshot.
    """
    if config is None:
        config = SimConfig(n_procs=trace.n_procs)
    if config_overrides:
        config = config.with_options(**config_overrides)
    return Engine(trace, config, protocol, probe=probe).run()
