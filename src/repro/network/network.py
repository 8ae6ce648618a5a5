"""The interconnect as a ledger: every message counted, none built.

Protocols charge each message through :meth:`Network.send`; accounting
(message counts and data bytes, per kind) happens here, in one place,
using the configured :class:`~repro.network.costs.CostModel` — the
paper's counting simulator (§5.1). A message is its arguments: nothing
is queued, delivered or kept, since the trace is a global order and each
message's effects are applied before the next event. The reliable-FIFO
assumption matters only where time exists and is enforced there, by the
timed fold's per-link arrival clamp (:mod:`repro.network.timed`).
"""

from __future__ import annotations

from typing import Optional

from repro.common.types import ProcId
from repro.network.costs import CostModel
from repro.network.message import MessageKind
from repro.network.stats import NetworkStats

#: Per ``count_acks`` policy, whether a kind's messages are counted, by
#: ``kind.slot``: built once, so a new ledger hashes no kind.
_COUNTED = {
    True: (True,) * len(MessageKind),
    False: tuple(not kind.is_ack for kind in MessageKind),
}


class Network:
    """The message/byte ledger of ``n_procs`` processors' traffic."""

    def __init__(self, n_procs: int, cost_model: Optional[CostModel] = None):
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        self.n_procs = n_procs
        self.cost_model = cost_model or CostModel()
        self.stats = NetworkStats()
        #: Telemetry hook (see :mod:`repro.obs.probe`); None when no
        #: recording probe is attached, so the disabled cost is one
        #: attribute load + identity check per message.
        self._probe = None
        self._probe_stages = False
        #: Handed every charged message after the ledger update, with
        #: :meth:`send`'s signature (``Protocol._tap``: a timed cell's
        #: send log and/or a tape run's record stream); None otherwise —
        #: same one-check-per-send discipline as the probe.
        self._tap = None
        #: While a lazy run records its priced tape, the list every
        #: ledger update also lands in as a deltas tuple
        #: (``PriceRecorder.captured``, summed into the current epoch per
        #: sync operation and gap); None otherwise, one check per update.
        self._capture = None
        # Cost-model policy flags, hoisted: send() runs once per message
        # of every interpreted cell and the model is immutable.
        self._count_header = self.cost_model.count_header_in_data
        self._count_control = self.cost_model.count_control_in_data
        self._header_bytes = self.cost_model.header_bytes
        self._counted = _COUNTED[self.cost_model.count_acks]
        # The ledger's columns, indexed by ``kind.slot`` (list indexing
        # beats enum-keyed dicts).
        self._messages = self.stats.messages
        self._data = self.stats.data_bytes
        self._control = self.stats.control_bytes

    def attach_probe(self, probe, stages: Optional[bool] = None) -> None:
        """Mirror every counted send into ``probe.on_message``.

        Only recording probes are kept — attaching the null probe (or
        None) leaves :meth:`send` untouched. A stock
        staging probe (:func:`~repro.obs.probe.is_stock_staging`), or
        any probe when ``stages`` says so (a tape run, where every hook
        is bypassed), has its staged segment row updated inline by
        :meth:`send` — three list adds instead of a Python method call
        per message.
        """
        from repro.obs.probe import is_stock_staging

        self._probe = probe if probe is not None and probe.enabled else None
        self._probe_stages = is_stock_staging(probe) if stages is None else stages

    def record_sends(self, tap) -> None:
        """Also hand every :meth:`send` to ``tap`` (None: to nothing)."""
        self._tap = tap

    # -- sending ---------------------------------------------------------------

    def apply_tape(self, deltas) -> None:
        """Apply a precomputed batch of ledger updates in one call.

        ``deltas`` is a sequence of ``(kind slot, messages, data_bytes,
        control_bytes)`` tuples — the merged accounting of several
        :meth:`send` calls: an epoch of a
        :class:`~repro.hb.skeleton.PricedTape` (``Protocol._fold``), or
        one diff fetch of the lazy kernels
        (``LazyProtocol._collect_diffs``). Callers certify what
        :meth:`send` would have done per message (endpoints in range,
        locals excluded, the ack policy applied); probe staging and the
        tap's records, when either is attached, are the caller's
        responsibility — the fold charges the tape's row sums, and the
        diff fetch its row and one tap call per message
        (``Protocol._tap``).
        """
        ledger_messages, ledger_data, ledger_control = self._messages, self._data, self._control
        for slot, messages, data_bytes, control_bytes in deltas:
            ledger_messages[slot] += messages
            ledger_data[slot] += data_bytes
            ledger_control[slot] += control_bytes
        if self._capture is not None:
            self._capture.append(deltas)

    def send(
        self,
        kind: MessageKind,
        src: ProcId,
        dst: ProcId,
        payload_bytes: int = 0,
        control_bytes: int = 0,
    ) -> None:
        """Account for one message from ``src`` to ``dst``.

        ``payload_bytes`` is shared data (pages, diffs); ``control_bytes``
        is protocol metadata (vector clocks, write notices). Local
        "sends" (src == dst) are free: nothing is counted, mirroring the
        paper's model in which e.g. a lock reacquired by its holder costs
        nothing extra beyond the three-message find-and-transfer of
        remote acquires. Nothing is delivered or kept — to watch
        individual messages, attach a probe that overrides
        :meth:`~repro.obs.probe.Probe.on_message`.
        """
        if src == dst:
            return
        n = self.n_procs
        if not (0 <= src < n and 0 <= dst < n):
            self._check_proc(src)
            self._check_proc(dst)
        slot = kind.slot
        counted = self._counted[slot]
        if counted:
            self._messages[slot] += 1
        data = payload_bytes
        if self._count_control:
            data += control_bytes
        if self._count_header:
            data += self._header_bytes
        self._data[slot] += data
        self._control[slot] += control_bytes
        if self._capture is not None:
            self._capture.append(((slot, 1 if counted else 0, data, control_bytes),))
        probe = self._probe
        if probe is not None:
            if self._probe_stages:
                row = probe._seg_row
                if counted:
                    row[0] += 1
                row[1] += data
                row[2] += control_bytes
            else:
                probe.on_message(kind, src, dst, data, control_bytes, counted)
        tap = self._tap
        if tap is not None:
            tap(kind, src, dst, payload_bytes, control_bytes)

    def _check_proc(self, proc: ProcId) -> None:
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"processor p{proc} out of range [0, {self.n_procs})")

    def __repr__(self) -> str:
        return f"Network(n_procs={self.n_procs}, {self.stats!r})"
