"""Execution-time simulation: from message counts to estimated speedup.

The counting simulator answers *how much* traffic each protocol
generates; this module estimates *how long* the program would take under
it. Each processor gets a clock. Ordinary accesses cost a fixed compute
time plus, when they trigger protocol traffic, the communication stall
(messages x latency + bytes / bandwidth, charged to the faulting
processor). Synchronization propagates clocks: a lock acquire cannot
complete before the previous holder's release; a barrier releases
everyone at the latest arrival. The result is a critical-path estimate
of parallel execution time, the serial time of the same work, and the
protocol-dependent speedup — the full version of §7's "assess the
runtime cost" (see also :func:`repro.analysis.timing_report.estimate_runtime`
for the simpler aggregate model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.common.types import BarrierId, LockId, ProcId
from repro.protocols.base import Protocol
from repro.protocols.registry import protocol_class
from repro.config import SimConfig
from repro.simulator.engine import _split_access
from repro.trace.events import EventType
from repro.trace.stream import TraceStream


@dataclass(frozen=True)
class ExecutionModel:
    """Cost constants for the execution-time estimate.

    Attributes:
        compute_s: local cost of one ordinary access (cache-hit work).
        sync_op_s: local cost of a synchronization operation.
        message_latency_s: one-way latency charged per message.
        byte_s: per-byte transmission cost (data + control).
    """

    compute_s: float = 1e-6
    sync_op_s: float = 5e-6
    message_latency_s: float = 1e-3
    byte_s: float = 8e-7

    @classmethod
    def ethernet_1992(cls) -> "ExecutionModel":
        return cls()

    @classmethod
    def modern_cluster(cls) -> "ExecutionModel":
        return cls(
            compute_s=5e-9,
            sync_op_s=5e-8,
            message_latency_s=5e-6,
            byte_s=1e-10,
        )


@dataclass
class ExecutionEstimate:
    """Outcome of one execution-time simulation."""

    protocol: str
    parallel_seconds: float
    serial_seconds: float
    per_proc_busy: List[float]
    comm_stall_seconds: float
    sync_wait_seconds: float

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return 0.0
        return self.serial_seconds / self.parallel_seconds

    @property
    def mean_utilization(self) -> float:
        """Mean fraction of the run each processor spent computing."""
        if self.parallel_seconds <= 0 or not self.per_proc_busy:
            return 0.0
        return sum(self.per_proc_busy) / (
            len(self.per_proc_busy) * self.parallel_seconds
        )

    def format(self) -> str:
        return (
            f"{self.protocol}: {self.parallel_seconds:.3f}s parallel "
            f"({self.serial_seconds:.3f}s serial work, speedup {self.speedup:.2f}x, "
            f"comm {self.comm_stall_seconds:.3f}s, sync wait "
            f"{self.sync_wait_seconds:.3f}s, util {self.mean_utilization:.0%})"
        )


class ExecutionSimulator:
    """Replays a trace, advancing per-processor clocks through a protocol."""

    def __init__(
        self,
        trace: TraceStream,
        config: SimConfig,
        protocol: Union[str, type],
        model: Optional[ExecutionModel] = None,
    ):
        self.trace = trace
        self.config = config
        cls = protocol_class(protocol) if isinstance(protocol, str) else protocol
        self.protocol: Protocol = cls(config)
        self.model = model or ExecutionModel()

    def run(self) -> ExecutionEstimate:
        model = self.model
        protocol = self.protocol
        stats = protocol.network.stats
        n = self.config.n_procs
        clock = [0.0] * n
        busy = [0.0] * n
        comm_stall = 0.0
        sync_wait = 0.0
        serial = 0.0
        release_time: Dict[LockId, float] = {}
        barrier_arrival: Dict[BarrierId, List[Tuple[ProcId, float]]] = {}

        def comm_delta(before_msgs: int, before_bytes: int) -> float:
            d_msgs = stats.total_messages - before_msgs
            d_bytes = (
                stats.total_data_bytes + stats.total_control_bytes
            ) - before_bytes
            return d_msgs * model.message_latency_s + d_bytes * model.byte_s

        for event in self.trace:
            proc = event.proc
            before_msgs = stats.total_messages
            before_bytes = stats.total_data_bytes + stats.total_control_bytes

            if event.type in (EventType.READ, EventType.WRITE):
                assert event.addr is not None and event.size is not None
                for page, words in _split_access(
                    event.addr, event.size, self.config.page_size
                ):
                    if event.type == EventType.READ:
                        protocol.read(proc, page, words)
                    else:
                        protocol.write(proc, page, words, token=event.seq)
                stall = comm_delta(before_msgs, before_bytes)
                clock[proc] += model.compute_s + stall
                busy[proc] += model.compute_s
                comm_stall += stall
                serial += model.compute_s

            elif event.type == EventType.ACQUIRE:
                assert event.lock is not None
                grantor_time = release_time.get(event.lock, 0.0)
                protocol.acquire(proc, event.lock)
                stall = comm_delta(before_msgs, before_bytes)
                ready = max(clock[proc], grantor_time)
                sync_wait += ready - clock[proc]
                clock[proc] = ready + model.sync_op_s + stall
                busy[proc] += model.sync_op_s
                comm_stall += stall
                serial += model.sync_op_s

            elif event.type == EventType.RELEASE:
                assert event.lock is not None
                protocol.release(proc, event.lock)
                stall = comm_delta(before_msgs, before_bytes)
                clock[proc] += model.sync_op_s + stall
                busy[proc] += model.sync_op_s
                comm_stall += stall
                serial += model.sync_op_s
                release_time[event.lock] = clock[proc]

            else:  # barrier
                assert event.barrier is not None
                protocol.barrier(proc, event.barrier)
                stall = comm_delta(before_msgs, before_bytes)
                clock[proc] += model.sync_op_s + stall
                busy[proc] += model.sync_op_s
                comm_stall += stall
                serial += model.sync_op_s
                waiting = barrier_arrival.setdefault(event.barrier, [])
                waiting.append((proc, clock[proc]))
                if len(waiting) == n:
                    resume = max(t for _, t in waiting) + model.message_latency_s
                    for waiter, arrived in waiting:
                        sync_wait += resume - arrived
                        clock[waiter] = resume
                    barrier_arrival[event.barrier] = []

        protocol.finish()
        return ExecutionEstimate(
            protocol=protocol.name,
            parallel_seconds=max(clock) if clock else 0.0,
            serial_seconds=serial,
            per_proc_busy=busy,
            comm_stall_seconds=comm_stall,
            sync_wait_seconds=sync_wait,
        )


def estimate_execution(
    trace: TraceStream,
    protocol: str,
    page_size: int = 4096,
    model: Optional[ExecutionModel] = None,
    config: Optional[SimConfig] = None,
) -> ExecutionEstimate:
    """One-call execution-time estimate."""
    base = config or SimConfig(n_procs=trace.n_procs)
    return ExecutionSimulator(
        trace, base.with_page_size(page_size), protocol, model
    ).run()
