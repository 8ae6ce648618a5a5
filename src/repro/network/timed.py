"""Virtual-clock timing as a fold over a cell's recorded send order.

The trace-driven simulator replays a *global order* of events and
delivers every message synchronously — that is the paper's counting
instrument, and it stays untouched. Timing is a pure observer of it, so
what the virtual clocks consume — every non-local send ``(src, dst,
wire_bytes)`` and every ordinary-access compute charge ``(proc,
words)``, in global order — does not depend on the link at all. A
:class:`SendLog` records that stream from whichever loop supplies
that run's ledger (the engine hands it to
:meth:`Protocol.record_sends <repro.protocols.base.Protocol.record_sends>`
and keeps it in the cell's :class:`~repro.hb.skeleton.CellRecord`);
:meth:`NetworkTiming.fold`
then advances per-processor virtual clocks over the log from one
:class:`~repro.network.link.LinkModel` (sender software overhead, link
serialization and queueing, loss → timeout → retransmit penalties,
propagation latency with seeded jitter). Lock-grant chains and barrier
arrival/exit fan-outs are plain messages, so causality — the acquirer
cannot proceed before the releaser's clock, nobody leaves a barrier
before the last arrival — emerges from clock propagation along message
edges, with no protocol changes.

Two invariants the tests pin:

* **Ledger invariance.** Message/byte counts are identical between a
  counting run and a timed run of *any* link configuration — the fold
  never touches the ledgers, and drops are transport-level (they cost
  ``timeout_s`` each and bump the retry counter, the channels stay
  reliable as §5.1 assumes), so lossy runs remain comparable to the
  paper's numbers.
* **Accounting closure.** Per processor, ``finish == busy + Σ stalls``:
  every clock advance is attributed to exactly one stall category or to
  compute.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.network.link import LinkModel
from repro.trace.precompile import OP_WRITE, OP_WRITE_N

#: Stall vocabulary of the timed run report, aligned with the span
#: timeline's categories where they overlap (``serialization`` and
#: ``retransmit`` are shared with ``repro.obs.spans.STALL_CATEGORIES``;
#: ``sync_wait`` is the catch-all for waiting on a peer's progress).
TIMED_STALL_CATEGORIES: Tuple[str, ...] = (
    "overhead",
    "serialization",
    "latency",
    "retransmit",
    "sync_wait",
)

_OVERHEAD, _SERIALIZATION, _LATENCY, _RETRANSMIT, _SYNC_WAIT = range(5)


class SendLog:
    """Everything one cell's virtual clocks consume, in global order.

    Three parallel typed arrays, one entry per record: a non-local send
    is ``(src, dst, wire_bytes)``; an ordinary-access compute charge is
    ``(proc, proc, words)`` — sends never have ``src == dst`` (local
    sends are free, exactly as in counting mode), so the equal pair is
    the record tag. The log is independent of the link model: one
    recording serves every :meth:`NetworkTiming.fold` over that cell.
    A run records only the messages, each at the compiled-op position
    its loop keeps in ``at`` (:meth:`track`); :meth:`close` merges the
    compute column in from the ops.
    """

    __slots__ = ("src", "dst", "amount", "at", "_at", "_header")

    def __init__(self, header_bytes: int = 0) -> None:
        self.src = array("H")
        self.dst = array("H")
        self.amount = array("I")
        self.at = 0
        self._at = array("I")
        self._header = header_bytes

    def on_send(self, src: int, dst: int, wire_bytes: int) -> None:
        """Record one non-local message at the cursor."""
        self.src.append(src)
        self.dst.append(dst)
        self.amount.append(wire_bytes)
        self._at.append(self.at)

    def send(self, kind, src, dst, payload_bytes=0, control_bytes=0) -> None:
        """:meth:`on_send` behind ``Network.send``'s signature."""
        if src != dst:
            self.on_send(src, dst, payload_bytes + control_bytes + self._header)

    def track(self, items, positions):
        """``items``, each yielded with the cursor at its op position."""
        for at, item in zip(positions, items):
            self.at = at
            yield item

    def close(self, ops) -> "SendLog":
        """Merge one ``(proc, words)`` charge per ordinary access of
        ``ops`` in, right after the messages of its own op — the order
        the fold's float sums are pinned in — and return the log."""
        src, dst, amount, at = self.src, self.dst, self.amount, self._at
        self.__init__(self._header)
        done = 0
        for pos, op in enumerate(ops):
            if done < len(at) and at[done] == pos:
                end = bisect_right(at, pos, done)
                self.src += src[done:end]
                self.dst += dst[done:end]
                self.amount += amount[done:end]
                done = end
            code = op[0]
            if code <= OP_WRITE_N:  # an access; sync ops compute nothing
                words = len(op[3]) if code <= OP_WRITE else sum([len(w) for _, w in op[2]])
                self.src.append(op[1])
                self.dst.append(op[1])
                self.amount.append(words)
        return self

    def __len__(self) -> int:
        return len(self.amount)

    def __repr__(self) -> str:
        return f"SendLog({len(self)} records)"


class NetworkTiming:
    """Per-processor virtual clocks advanced over a :class:`SendLog`.

    :meth:`fold` is the only implementation of the per-message clock
    arithmetic; :meth:`report` renders the run's timing summary after
    it. One instance folds one log (the per-link queueing state lives
    and dies inside the fold).
    """

    def __init__(
        self,
        link: LinkModel,
        n_procs: int,
        network_seed: int,
        keep_delays: bool = False,
    ):
        self.link = link
        self.n_procs = n_procs
        self.network_seed = network_seed
        self._rng = random.Random(network_seed)
        #: Virtual clock per processor (seconds since run start).
        self.clock: List[float] = [0.0] * n_procs
        #: Compute seconds per processor.
        self.busy: List[float] = [0.0] * n_procs
        #: Stall seconds per processor per category (list-indexed by
        #: the ``TIMED_STALL_CATEGORIES`` position — the fold touches a
        #: row once per message).
        self.stall_rows: List[List[float]] = [[0.0] * 5 for _ in range(n_procs)]
        #: Timed (non-local) messages folded.
        self.messages = 0
        #: Total retransmissions across all messages.
        self.retries = 0
        #: Per-message ``(total_delay_s, serialization_s, retransmit_s)``
        #: in send order, one entry per probe-visible message — the
        #: span builder consumes this in place of synthetic costs.
        self.delay_log: Optional[List[Tuple[float, float, float]]] = (
            [] if keep_delays else None
        )

    def fold(self, log: SendLog) -> None:
        """Advance the clocks over every record of ``log``, in order."""
        link = self.link
        overhead = link.overhead_s
        bandwidth = link.bandwidth
        loss = link.loss
        budget = link.max_retries
        timeout = link.timeout_s
        base_latency = link.latency_s
        jitter = link.jitter_s
        access = link.access_s
        draw = self._rng.random
        clock = self.clock
        busy = self.busy
        stall_rows = self.stall_rows
        delay_log = self.delay_log
        n_procs = self.n_procs
        # Per-link state, indexed src * n_procs + dst: when the wire
        # frees up (serialization/queueing under finite bandwidth), and
        # the newest arrival (the FIFO floor for everything behind it).
        busy_until = [0.0] * (n_procs * n_procs)
        last_arrival = [0.0] * (n_procs * n_procs)
        messages = retries = 0
        for src, dst, amount in zip(log.src, log.dst, log.amount):
            if src == dst:
                if access:
                    cost = amount * access
                    clock[src] += cost
                    busy[src] += cost
                continue
            depart = now = clock[src]
            if overhead:
                now += overhead
                clock[src] = now
                stall_rows[src][_OVERHEAD] += overhead
            wire = src * n_procs + dst
            # Serialization: the link carries one message at a time, so
            # a burst from the same sender queues behind its own traffic.
            if bandwidth:
                start = busy_until[wire]
                if start < now:
                    start = now
                busy_until[wire] = until = start + amount / bandwidth
                ser_wait = until - now
            else:
                ser_wait = 0.0
            # Loss → timeout → retransmit: geometric in the seeded RNG,
            # capped at max_retries; the post-budget attempt always
            # succeeds (reliable channels — loss costs time, never
            # delivery).
            penalty = 0.0
            if loss:
                lost = 0
                while lost < budget and draw() < loss:
                    lost += 1
                if lost:
                    penalty = lost * timeout
                    retries += lost
            latency = base_latency
            if jitter:
                latency += draw() * jitter
            # FIFO clamp (§5.1): jitter must not let a later message
            # overtake an earlier one on the same link.
            arrival = now + ser_wait + penalty + latency
            floor = last_arrival[wire]
            if arrival < floor:
                arrival = floor
            else:
                last_arrival[wire] = arrival
            messages += 1
            if delay_log is not None:
                delay_log.append((arrival - depart, ser_wait, penalty))
            # Receiver advance, decomposed from the tail of the delay
            # backwards: the network components of *this* message first,
            # anything earlier is time spent waiting for the sender to
            # get this far (sync_wait).
            recv = clock[dst]
            if arrival > recv:
                row = stall_rows[dst]
                rem = arrival - recv
                take = penalty if penalty < rem else rem
                if take > 0.0:
                    row[_RETRANSMIT] += take
                    rem -= take
                take = ser_wait if ser_wait < rem else rem
                if take > 0.0:
                    row[_SERIALIZATION] += take
                    rem -= take
                take = latency if latency < rem else rem
                if take > 0.0:
                    row[_LATENCY] += take
                    rem -= take
                if rem > 0.0:
                    row[_SYNC_WAIT] += rem
                clock[dst] = arrival
        self.messages = messages
        self.retries = retries

    # -- summary ---------------------------------------------------------------

    @property
    def completion_s(self) -> float:
        """Simulated completion time: the last processor's clock."""
        return max(self.clock) if self.clock else 0.0

    def stall_totals(self) -> Dict[str, float]:
        """Stall seconds per category, summed across processors."""
        return {
            name: sum(row[index] for row in self.stall_rows)
            for index, name in enumerate(TIMED_STALL_CATEGORIES)
        }

    def report(self) -> Dict[str, object]:
        """The timed-run summary carried on the simulation result.

        Plain dicts/lists only — it pickles across sweep workers and
        serializes to JSON unchanged, like the provenance manifest.
        """
        completion = self.completion_s
        per_proc = []
        for proc in range(self.n_procs):
            row = self.stall_rows[proc]
            per_proc.append(
                {
                    "proc": proc,
                    "finish_s": self.clock[proc],
                    "busy_s": self.busy[proc],
                    "stall_s": {
                        name: row[index]
                        for index, name in enumerate(TIMED_STALL_CATEGORIES)
                        if row[index]
                    },
                }
            )
        return {
            "network_seed": self.network_seed,
            "link": self.link.to_dict(),
            "completion_s": completion,
            "busy_s": sum(self.busy),
            "stall_s": self.stall_totals(),
            "messages": self.messages,
            "retries": self.retries,
            "per_proc": per_proc,
        }
