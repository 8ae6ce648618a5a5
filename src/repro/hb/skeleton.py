"""The protocol-independent happened-before skeleton of one trace.

Everything the lazy protocols derive from synchronization order — vector
clock evolution, interval contents and diffs, and the write-notice gap
each grant/barrier message covers — is fully determined by the trace and
the processor count. None of it depends on which lazy protocol runs or
on the per-run config: merging the grantor's clock is the identity
precisely when ``free_local_lock_reacquire`` would skip it, and the
piggyback/GC/diff options only change *messages*, never clocks or
interval contents.

:func:`build_skeleton` therefore replays the synchronization structure
once per (compiled trace, n_procs), producing:

* a fully populated :class:`~repro.hb.store.IntervalStore` — every
  interval of the whole run, with its diffs finalized in first-write
  order, which also means the store's write-notice index and the
  :class:`~repro.hb.index.FetchPlanner` built over it answer queries for
  any prefix of the run correctly (plans only ever touch the interval
  ids they are asked about);
* one *sync record* per special access, in trace order — the run
  program's sync instructions' order — carrying the closed interval, the
  merged clocks, and the notice batches already grouped by page.

This is the one statement of §4's sync rules in ``src/``: intervals
close through :meth:`IntervalStore.close
<repro.hb.store.IntervalStore.close>`, clocks merge at acquires and
barrier episodes, and notice batches come from :meth:`IntervalStore.gap
<repro.hb.store.IntervalStore.gap>`. Both loops of
:mod:`repro.protocols.lazy_base` replay the records — the interpreter's
hooks and the tape's ``_t_*`` kernels call the same bodies on them — and
only the test oracle states the rules again. The skeleton holds no
cost: both loops price every hop live, through ``Network.send``.

Sync record shapes (plain tuples, hot-path friendly)::

    close_rec = (index, vc_after_close, interval_or_None)
    acquire:  (close_rec, grantor, manager, n_notices, grouped, vc_after)
    release:  (close_rec,)
    barrier:  (close_rec, n_to_master, complete_or_None)
        n_to_master: notice count the arrival carries (-1 for the
        master's own arrival, which sends nothing)
        complete: tuple over procs of (n_notices, grouped, vc_after),
        present only on the completing arrival

``grouped`` is the gap's notices as ``(page, (interval_id, ...))`` pairs
(each id the store's own object, each pair one tuple per distinct value
across the skeleton's batches) in first-occurrence order — what every
loop hands a protocol's ``_receive``, which inserts pages into
``pending`` in that order (LU's pull scan and diff-apply emission
iterate it).

The eager family (EI/EU/EW) shares none of that clock machinery, but
its replay is just as precomputable: every probe emission and network
message of an eager run happens on a miss, a write fault, or a flush —
all three fully determined by (compiled ops, n_procs, policy); the
per-run config only changes *wire sizes*, linear in the cost model.
:func:`eager_steps` therefore simulates the eager state machines
(directory, page states, dirty sets) once per policy, one step per
special access: the misses and write faults of the gap before it, in
global order, then the operation with its flush outcome. That order is
what makes replaying a gap in one go sound — a remote flush can
invalidate a page (or revoke EW write permission) *mid-span*, so the
same (proc, page) span may miss twice, but both misses precede the next
synchronization operation and nothing else happens in between. One
walker turns the steps into charges
(:func:`~repro.protocols.eager_base.walk_eager_steps`): summed into one
entry per barrier epoch (:class:`PricedTape`) per cost key, which
:meth:`Protocol._fold <repro.protocols.base.Protocol._fold>` folds; or,
for a run that writes events or messages, also written and folded an
epoch at a time. Nothing keeps the steps.

:func:`batch_plan` memoizes one :class:`BatchPlan` (skeleton + run
program + eager priced tapes + shared fetch planners, each built lazily
on first use, plus one :class:`CellRecord` per cell run before) per
n_procs on the compiled trace itself, so every protocol replay of a
sweep reuses it.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.common.types import BarrierId, ProcId
from repro.common.vector_clock import VectorClock
from repro.hb.index import FetchPlanner
from repro.hb.store import IntervalStore
from repro.network.costs import CostModel
from repro.network.timed import SendLog
from repro.obs.probe import MISS_CAUSE
from repro.sync.barrier import BarrierMaster
from repro.sync.lock_manager import LockDirectory
from repro.trace.precompile import (
    OP_ACQUIRE,
    OP_READ,
    OP_READ_N,
    OP_RELEASE,
    OP_WRITE,
    OP_WRITE_N,
    CompiledTrace,
)
from repro.trace.runs import segment_runs

if TYPE_CHECKING:
    from repro.obs.spans import SpanRecords

#: Plan/tape construction counters, cumulative per process. ``hits``
#: count memoized reuse; sweeps snapshot around their grid to report the
#: cache hit rate (see :func:`repro.simulator.sweep.run_sweep`).
PLAN_STATS: Dict[str, int] = {
    "plan_builds": 0,
    "plan_hits": 0,
    "priced_tape_builds": 0,
    "priced_tape_hits": 0,
    "record_builds": 0,
    "record_hits": 0,
}


def plan_stats() -> Dict[str, int]:
    """A snapshot copy of the cumulative plan/tape cache counters."""
    return dict(PLAN_STATS)

#: Record type codes in an eager step's gap.
E_MISS = 0
E_WFAULT = 1


class Skeleton:
    """The prebuilt interval store plus one sync record per special access."""

    __slots__ = ("n_procs", "store", "records")

    def __init__(self, n_procs: int, store: IntervalStore, records: List[tuple]):
        self.n_procs = n_procs
        self.store = store
        self.records = records

    def __repr__(self) -> str:
        return f"Skeleton(n_procs={self.n_procs}, {len(self.records)} sync records)"


class PricedTape:
    """A run summed per barrier epoch: what a run that watches no
    individual message and writes no event needs of it.

    One schema for both families, summed by a :class:`PriceRecorder`.
    An eager policy's tape is priced from its :func:`eager_steps` walk at
    one cost key ``(cost model, free_local_lock_reacquire)`` (the page
    size is the plan's). A lazy cell's is recorded by a tape run of a
    cell run before, at the network ledger while the kernels run, and
    kept in the cell's :class:`CellRecord`. ``epochs`` holds one entry
    per completed barrier episode, then one for the tail::

        (deltas, rows, complete)
            deltas: ((kind slot, messages, data_bytes, control_bytes),
            ...) merged per kind, locals skipped, uncounted acks adding
            bytes but no message — what ``Network.send`` would have
            added message by message (``Network.apply_tape``)
            rows: ((cause, messages, data, control, faults), ...) for
            each staged probe row (``("lock" | "barrier", id)`` or
            ``("miss", -1)``) the epoch uses first, in first-use order —
            a sync operation's even when it charges nothing — or
            charges, with the epoch's sum
            complete: True but on the tail

    That is as fine as anything reads it: the ledger is per kind, a
    probe drains per (epoch, cause) sums in row-creation order.
    ``counters`` is the run's final value of every protocol counter it
    moves — an eager policy's misses, flushes, reconciles, write faults
    and ping-pongs; a lazy cell's every counter and the ``m``/``h``
    histograms. :meth:`repro.protocols.base.Protocol._fold` is the one
    fold over it.
    """

    __slots__ = ("epochs", "counters")

    def __init__(self, epochs: List[tuple], counters: Dict[str, object]):
        self.epochs = epochs
        self.counters = counters

    def __repr__(self) -> str:
        return f"PricedTape({len(self.epochs)} epochs)"


class PriceRecorder:
    """Sums a run's charges into the current epoch of a
    :class:`PricedTape` as they happen.

    ``captured`` takes deltas tuples until :meth:`close` charges them to
    a row: for a lazy run it is the network's capture
    (``Network._capture``: every deltas tuple ``apply_tape`` applies,
    and every message ``send`` charges as a one-delta tuple); the eager
    walker (:func:`~repro.protocols.eager_base.walk_eager_steps`)
    appends what it prices. ``fold``, given, takes each epoch as it ends
    instead of the tape. It holds no reference to the run, so the tape
    it makes references neither a protocol nor a plan.
    """

    __slots__ = ("captured", "_fold", "_epochs", "_rows", "_used", "_faults")

    def __init__(self, fold=None) -> None:
        self.captured: List[tuple] = []
        self._fold = fold
        self._epochs: List[tuple] = []
        #: The current epoch's rows, by cause in first-use order: each
        #: row's fault count, then every deltas tuple charged to it —
        #: summed when the epoch ends; rows any earlier epoch used.
        self._rows: Dict[Tuple[str, int], list] = {}
        self._used: Set[Tuple[str, int]] = set()
        self._faults = 0

    def close(self, cause: Tuple[str, int], faults: int, complete: bool = False) -> None:
        """Charge what was captured since the last close, and the access
        faults since then (``faults`` is the run's count so far), to
        ``cause``'s row; ``complete``, a barrier arrival ends the epoch.
        A sync operation's row is used even when it charges nothing, so
        the fold creates it where the wrappers do; the miss row only
        when charged."""
        captured = self.captured
        new_faults = faults - self._faults
        row = self._rows.get(cause)
        if row is None:
            if cause == MISS_CAUSE and not captured and not new_faults:
                return
            row = self._rows[cause] = [0]
        self._faults = faults
        row[0] += new_faults
        if captured:
            row += captured
            captured.clear()
        if complete:
            self._end_epoch(True)

    def _end_epoch(self, complete: bool) -> None:
        """Sum the epoch's charges, per kind and per row. Most charges
        repeat (a lock's hops, a bare miss): each distinct one is summed
        once, times its count."""
        by_slot: Dict[int, List[int]] = {}
        rows = []
        used = self._used
        for cause, (faults, *charges) in self._rows.items():
            messages = data = control = 0
            for charge, n in Counter(charges).items():
                for slot, slot_messages, slot_data, slot_control in charge:
                    acc = by_slot.get(slot)
                    if acc is None:
                        by_slot[slot] = acc = [slot, 0, 0, 0]
                    acc[1] += n * slot_messages
                    acc[2] += n * slot_data
                    acc[3] += n * slot_control
                    messages += n * slot_messages
                    data += n * slot_data
                    control += n * slot_control
            if cause not in used or messages or data or control or faults:
                rows.append((cause, messages, data, control, faults))
        used.update(self._rows)
        epoch = (tuple(map(tuple, by_slot.values())), tuple(rows), complete)
        if self._fold is None:
            self._epochs.append(epoch)
        else:
            self._fold(epoch)
        self._rows = {}

    def tape(self, counters: Dict[str, object]) -> PricedTape:
        """End the tail epoch: the run's :class:`PricedTape`."""
        self._end_epoch(False)
        return PricedTape(self._epochs, counters)


class CellRecord:
    """What runs of one cell kept: one optional slot per part, each a
    link-free view of the run written through ``Network.send``.

    * ``priced`` — a lazy cell's :class:`PricedTape`, recorded by its
      kernels; a run that writes nothing folds it;
    * ``log`` — its :class:`~repro.network.timed.SendLog`, the input of
      a timed run's clock fold (:mod:`repro.network.timed`);
    * ``stream`` — its :class:`~repro.obs.spans.SpanRecords`: every
      event, window, message and epoch mark a stock observer receives.

    The record exists once the cell has run (:meth:`BatchPlan.cell_record`)
    and a run keeps a part it writes only then, so a cell run once keeps
    nothing and a part nobody writes is never held. Reads and keeps are
    counted under ``record_hits`` / ``record_builds``.
    """

    __slots__ = ("priced", "log", "stream")

    def __init__(self) -> None:
        self.priced: Optional[PricedTape] = None
        self.log: Optional[SendLog] = None
        self.stream: Optional["SpanRecords"] = None

    def read(self, part: str):
        """The kept ``part``, or None."""
        value = getattr(self, part)
        if value is not None:
            PLAN_STATS["record_hits"] += 1
        return value

    def keep(self, part: str, value) -> None:
        PLAN_STATS["record_builds"] += 1
        setattr(self, part, value)


class BatchPlan:
    """Everything the tape replays of one compiled trace share.

    The run program, skeleton, and tapes are immutable during replays
    and built lazily on first use — an eager-only replay never pays for
    the run program or the lazy interval store, and vice versa. The
    skeleton is one for every lazy protocol and cost key (the kernels
    price it live); an eager policy's :class:`PricedTape` is kept per
    cost key. The fetch
    planners (one per (cost model, pruning flag) actually used) are
    memo caches over the immutable store, so sharing them across
    protocol instances only widens the memo hit rate. What runs of a
    cell kept is its :class:`CellRecord` (:meth:`cell_record`).
    """

    __slots__ = (
        "ops",
        "page_size",
        "n_procs",
        "_runs",
        "_skeleton",
        "_planners",
        "_priced_tapes",
        "_records",
        "_compute_profile",
    )

    def __init__(self, compiled: CompiledTrace, n_procs: int):
        # The ops, not the compiled trace that memoizes this plan: a
        # back-reference would make the pair a cycle, and a dropped
        # trace must free its plans by reference counting alone.
        self.ops = compiled.ops
        self.page_size = compiled.page_size
        self.n_procs = n_procs
        self._runs: Optional[Tuple[List[tuple], array]] = None
        self._skeleton: Optional[Skeleton] = None
        self._planners: Dict[Tuple[CostModel, bool], FetchPlanner] = {}
        #: Eager policies' by cost key.
        self._priced_tapes: Dict[tuple, PricedTape] = {}
        self._records: Dict[tuple, CellRecord] = {}
        #: Kept by :func:`sync_compute_profile`, not a tape: no stats.
        self._compute_profile: Optional[List[List[int]]] = None

    @property
    def run_program(self) -> Tuple[List[tuple], array]:
        """The run program's instructions and each one's op position,
        segmented on first use."""
        program = self._runs
        if program is None:
            program = self._runs = segment_runs(self.ops, self.n_procs)
        return program

    @property
    def runs(self) -> List[tuple]:
        return self.run_program[0]

    @property
    def skeleton(self) -> Skeleton:
        skeleton = self._skeleton
        if skeleton is None:
            skeleton = self._skeleton = build_skeleton(self.ops, self.n_procs)
        return skeleton

    @property
    def store(self) -> IntervalStore:
        return self.skeleton.store

    def _memo(self, cache: dict, key, build, kind: Optional[str] = None):
        """``cache[key]``, built on first use; ``kind`` names the
        ``PLAN_STATS`` pair that counts the build or the hit."""
        value = cache.get(key)
        if value is None:
            value = cache[key] = build()
            outcome = "builds"
        else:
            outcome = "hits"
        if kind is not None:
            PLAN_STATS[f"{kind}_{outcome}"] += 1
        return value

    def eager_steps(self, policy: str) -> List[tuple]:
        """``policy``'s walk, fresh and unkept. Drained first, dropped
        after: pricing the generator step by step measured 5-15 %
        slower (docs/PERFORMANCE.md)."""
        return list(eager_steps(self.ops, self.n_procs, policy))

    def eager_tape(self, policy: str) -> PricedTape:
        """``policy``'s priced tape at the default cost key — what a
        default config's run folds, built ahead of it. (The benchmark's
        set-up step calls it by this name.)"""
        return self.priced_eager_tape(policy, CostModel(), True)

    def priced_eager_tape(
        self, policy: str, cost_model: CostModel, free_reacquire: bool
    ) -> PricedTape:
        """The (memoized) priced tape of ``policy`` for one cost key,
        counted under its own ``priced_tape_*`` stats: a build is one
        :func:`~repro.protocols.eager_base.walk_eager_steps`, which
        keeps none of the steps it walks."""
        from repro.protocols.eager_base import walk_eager_steps  # (it imports this module)

        return self._memo(
            self._priced_tapes,
            (policy, cost_model, free_reacquire),
            lambda: walk_eager_steps(self, policy, cost_model, free_reacquire),
            "priced_tape",
        )

    def lazy_tape(self, *_cost_key) -> Skeleton:
        """The skeleton, whatever the cost key: what the lazy kernels
        replay. An alias kept only for the frozen benchmark's
        ``prepare_cell`` (``benchmarks/lrcbench``), which calls it."""
        return self.skeleton

    def cell_record(self, key: tuple) -> Optional[CellRecord]:
        """The record of ``key``'s cell when the cell was run before, else
        None, noting this run. ``key`` is (protocol class, config with
        ``link_model=None``): everything that can change send order,
        wire sizes or an event, nothing a clock fold reads."""
        record = self._records.get(key)
        if record is None:
            self._records[key] = CellRecord()
        return record

    def planner_for(self, cost_model: CostModel, prune_overwritten: bool) -> FetchPlanner:
        return self._memo(
            self._planners,
            (cost_model, prune_overwritten),
            lambda: FetchPlanner(self.skeleton.store, cost_model, prune_overwritten),
        )

    def __repr__(self) -> str:
        return (
            f"BatchPlan({len(self.ops)} ops at page_size={self.page_size}, "
            f"n_procs={self.n_procs})"
        )


def build_skeleton(ops: List[tuple], n_procs: int) -> Skeleton:
    """One pass over the compiled ops, replaying synchronization only."""
    store = IntervalStore(n_procs)
    locks = LockDirectory(n_procs)
    barriers = BarrierMaster(n_procs)
    master = barriers.master
    vcs = [VectorClock.zero(n_procs) for _ in range(n_procs)]
    #: Open-interval writes: per proc, page -> (word -> last token), in
    #: first-write order — mirrors the page tables' dirty registries.
    dirty: List[Dict[int, Dict[int, int]]] = [{} for _ in range(n_procs)]
    episodes: Dict[BarrierId, List[VectorClock]] = {}
    records: List[tuple] = []
    append_record = records.append
    store_close = store.close
    gap = store.gap
    # One tuple per distinct (page, ids) pair across every kept batch:
    # a barrier sends every processor the same notices.
    share = {}.setdefault

    def notices(sender_vc: VectorClock, receiver_vc: VectorClock) -> Tuple[int, tuple]:
        n, grouped = gap(sender_vc, receiver_vc)
        return n, tuple(map(share, grouped, grouped))

    def close(proc: ProcId) -> tuple:
        pages = dirty[proc]
        if pages:
            dirty[proc] = {}
        record = store_close(proc, vcs[proc], pages.items())
        vcs[proc] = record[1]
        return record

    for token, op in enumerate(ops):  # an op's position is its write token
        code = op[0]
        if code == OP_WRITE:
            words = dirty[op[1]].get(op[2])
            if words is None:
                dirty[op[1]][op[2]] = words = {}
            for word in op[3]:
                words[word] = token
        elif code <= OP_READ_N:  # OP_READ or OP_READ_N: no hb effect
            continue
        elif code == OP_WRITE_N:
            proc_dirty = dirty[op[1]]
            for page, op_words in op[2]:
                words = proc_dirty.get(page)
                if words is None:
                    proc_dirty[page] = words = {}
                for word in op_words:
                    words[word] = token
        elif code == OP_ACQUIRE:
            proc, lock = op[1], op[2]
            close_rec = close(proc)
            grantor = locks.grantor_of(lock)
            manager = locks.manager_of(lock)
            grantor_vc = vcs[grantor]
            n, grouped = notices(grantor_vc, vcs[proc])
            vc_after = vcs[proc].merged(grantor_vc)
            append_record((close_rec, grantor, manager, n, grouped, vc_after))
            # Config-independent: when free_local_lock_reacquire skips
            # the merge at runtime, grantor == proc and the merge is the
            # identity anyway (a clock always covers its own intervals).
            vcs[proc] = vc_after
            locks.record_acquire(proc, lock)
        elif code == OP_RELEASE:
            proc, lock = op[1], op[2]
            append_record((close(proc),))
            locks.record_release(proc, lock)
        else:  # OP_BARRIER
            proc, barrier = op[1], op[2]
            close_rec = close(proc)
            episode = episodes.setdefault(barrier, [])
            if proc != master:
                merged = vcs[master]
                for vc in episode:
                    merged = merged.merged(vc)
                n_to_master = gap(vcs[proc], merged)[0]
            else:
                n_to_master = -1
            episode.append(vcs[proc])
            complete: Optional[tuple] = None
            if barriers.record_arrival(proc, barrier):
                merged = vcs[master]
                for vc in episode:
                    merged = merged.merged(vc)
                episodes[barrier] = []
                per_proc = []
                for p in range(n_procs):
                    n, grouped = notices(merged, vcs[p])
                    per_proc.append((n, grouped, vcs[p].merged(merged)))
                for p in range(n_procs):
                    vcs[p] = per_proc[p][2]
                complete = tuple(per_proc)
            append_record((close_rec, n_to_master, complete))
    return Skeleton(n_procs, store, records)


#: Page-table states mirrored during eager tape builds. Absent from a
#: proc's page dict means MISSING (never fetched), matching PageState.
_VALID = 1
_INVALID = 2


def _run_count(words: Set[int]) -> int:
    """Number of maximal consecutive-index runs over a word-index set:
    the words with no predecessor in it.

    Matches ``Diff.runs()`` over the same words, which is what sizes a
    diff on the wire (``wire_bytes`` is linear in runs and words — the
    only reason flush outcomes can be stored as (n_runs, n_words) pairs
    instead of whole diffs).
    """
    return sum([word - 1 not in words for word in words])


def eager_steps(ops: List[tuple], n_procs: int, policy: str):
    """Simulate one eager policy's state machine, a step per special access.

    ``policy`` is ``"EI"``, ``"EU"``, or ``"EW"``. EI and EU need
    separate walks: EI's flush invalidations change which later accesses
    miss. One walk over the compiled ops drives the policy's ``read`` /
    ``write`` / ``flush`` closures; whatever they record between two
    synchronization operations is that gap, closed by the operation.
    Yields one step per special access of the trace, in trace order,
    then ``(None, tail, None)`` for the gap after the last one::

        (sync, gap, flush)
            sync:  the compiled op itself, (OP_ACQUIRE | OP_RELEASE |
                   OP_BARRIER, proc, lock or barrier id) — the tuple
                   ``ops`` already holds, not a copy
            gap:   the miss / write-fault records of every processor
                   since the previous sync, in global order
            flush: the release's or barrier arrival's flush outcome;
                   None when nothing was dirty, on acquires and on EW

    Record shapes (``at``: the missing or faulting access's position in
    ``ops``, which is its event's seq)::

        (E_MISS, at, proc, page, cold, server, forward_or_None)
        (E_WFAULT, at, proc, page, miss_or_None, holders, ping)
            miss: (cold, server, forward_or_None) for the nested fetch
        flush: (count, excess, pushes)
            excess: ((page, owner, n_runs, n_words, dests), ...)
            pushes: ((dest, n_diffs, total_runs, total_words), ...)

    :func:`~repro.protocols.eager_base.walk_eager_steps` consumes the
    stream. Nothing keeps it.
    """
    gap: List[tuple] = []
    if policy == "EW":
        states, miss, write, flush = _ew_policy(n_procs, gap.append)
    elif policy in ("EI", "EU"):
        states, miss, write, flush = _flush_policy(n_procs, gap.append, update=(policy == "EU"))
    else:
        raise ValueError(f"unknown eager tape policy: {policy!r}")
    for at, op in enumerate(ops):
        code = op[0]
        if code == OP_READ:  # a hit, nearly always: tested here, not in a call
            if states[op[1]].get(op[2]) != _VALID:
                miss(at, op[1], op[2])
        elif code == OP_WRITE:
            write(at, op[1], op[2], op[3])
        elif code == OP_READ_N:
            proc = op[1]
            for page, _ in op[2]:
                if states[proc].get(page) != _VALID:
                    miss(at, proc, page)
        elif code == OP_WRITE_N:
            proc = op[1]
            for page, words in op[2]:
                write(at, proc, page, words)
        else:  # OP_ACQUIRE / OP_RELEASE / OP_BARRIER
            yield op, tuple(gap), flush(op[1]) if code != OP_ACQUIRE else None
            del gap[:]
    yield None, tuple(gap), None


def _directory(n_procs: int):
    """Per-proc page states, the global copyset/owner directory, and the
    miss routing every eager policy shares.

    Returns ``(states, owner, copyset, fetch, invalidate)``;
    ``states[proc]`` gains pages in first-access order, which is the
    page tables' entry-creation order (it fixes flush/excess ordering).
    """
    states: List[Dict[int, int]] = [{} for _ in range(n_procs)]
    copyset: Dict[int, Set[int]] = defaultdict(set)
    owner: Dict[int, int] = {}

    def fetch(proc: int, page: int) -> tuple:
        """One miss through the page's manager: ``(cold, server,
        forward_or_None)`` — two messages when the manager can supply
        the page, three when it forwards to the owner — plus its
        effects: ``proc`` holds a valid copy and owns a page nobody did."""
        cold = page not in states[proc]
        page_cachers = copyset[page]
        own = owner.get(page)
        manager = page % n_procs
        if own is None or manager in page_cachers:
            server, forward = manager, None
        else:
            server = own if own != proc else manager
            forward = manager
        page_cachers.add(proc)
        if own is None:
            owner[page] = proc
        states[proc][page] = _VALID
        return (cold, server, forward)

    def invalidate(dest: int, page: int) -> None:
        """``dest`` loses its copy: out of the copyset, and INVALID if
        it was VALID (``_apply_invalidations``)."""
        if states[dest].get(page) == _VALID:
            states[dest][page] = _INVALID
        copyset[page].discard(dest)

    return states, owner, copyset, fetch, invalidate


def _flush_policy(n_procs: int, record, update: bool):
    """EI/EU: misses, plus one flush outcome per release/barrier."""
    states, owner, copyset, fetch, invalidate = _directory(n_procs)
    dirty: List[Dict[int, Set[int]]] = [{} for _ in range(n_procs)]

    def miss(at: int, proc: int, page: int) -> None:
        record((E_MISS, at, proc, page) + fetch(proc, page))

    def write(at: int, proc: int, page: int, words) -> None:
        if states[proc].get(page) != _VALID:
            miss(at, proc, page)
        d = dirty[proc].get(page)
        if d is None:
            dirty[proc][page] = d = set()
        d.update(words)

    def flush(proc: int) -> Optional[tuple]:
        proc_states = states[proc]
        proc_dirty = dirty[proc]
        if not proc_dirty:
            return None
        # Dirty entries in page-table (first-access) order, fixed once
        # up front — exactly like _flush's dirty_entries list.
        dirty_pages = [p for p in proc_states if p in proc_dirty]
        excess: List[tuple] = []
        per_dest: Dict[int, List] = {}
        for page in dirty_pages:
            words = proc_dirty.pop(page)
            n_words = len(words)
            n_runs = _run_count(words)
            if proc_states[page] == _INVALID:
                own = owner.get(page)
                assert own is not None and own != proc, (
                    "excess invalidator flush with no distinct owner"
                )
                dests = tuple(sorted(copyset[page] - {proc, own}))
                excess.append((page, own, n_runs, n_words, dests))
                for dest in dests:
                    invalidate(dest, page)
            else:
                for dest in copyset[page] - {proc}:
                    acc = per_dest.get(dest)
                    if acc is None:
                        per_dest[dest] = acc = [0, 0, 0, []]
                    acc[0] += 1
                    acc[1] += n_runs
                    acc[2] += n_words
                    acc[3].append(page)
                owner[page] = proc  # _post_flush_page
        pushes: List[tuple] = []
        for dest in sorted(per_dest):
            count, runs_total, words_total, pages = per_dest[dest]
            pushes.append((dest, count, runs_total, words_total))
            if not update:
                # EI applies the invalidations as part of the push.
                for page in pages:
                    invalidate(dest, page)
        return (len(dirty_pages), tuple(excess), tuple(pushes))

    return states, miss, write, flush


def _ew_policy(n_procs: int, record):
    """EW: misses plus write-fault records; its flush finds nothing,
    every write having propagated at fault time."""
    states, owner, copyset, fetch, invalidate = _directory(n_procs)
    writable: Set[Tuple[int, int]] = set()
    last_owner: Dict[int, int] = {}

    def fetch_copy(proc: int, page: int) -> tuple:
        """ExclusiveWriter._fetch: a new reader costs the owner its
        write permission."""
        own = owner.get(page)
        miss = fetch(proc, page)
        if own is not None and own != proc:
            writable.discard((own, page))
        return miss

    def miss(at: int, proc: int, page: int) -> None:
        record((E_MISS, at, proc, page) + fetch_copy(proc, page))

    def write(at: int, proc: int, page: int, _words) -> None:
        if (proc, page) in writable:
            return
        # _acquire_ownership
        miss = None
        if states[proc].get(page) != _VALID:
            miss = fetch_copy(proc, page)
        holders = tuple(sorted(copyset[page] - {proc}))
        for holder in holders:
            invalidate(holder, page)
            writable.discard((holder, page))
        # The copyset is now {proc}: a valid or just-fetched copy is in it.
        previous = last_owner.get(page)
        ping = previous is not None and previous != proc
        last_owner[page] = proc
        owner[page] = proc
        writable.add((proc, page))
        record((E_WFAULT, at, proc, page, miss, holders, ping))

    return states, miss, write, lambda proc: None


def sync_compute_profile(compiled: CompiledTrace, n_procs: int) -> List[List[int]]:
    """Per-processor compute weights between synchronization operations.

    ``profile[p]`` lists the number of words processor ``p`` touches
    between consecutive special accesses: entry ``k`` is the weight of
    the chunk before ``p``'s ``k``-th sync operation (in ``p``'s own
    program order) and the final entry is the tail after its last one,
    so ``len(profile[p])`` is always ``p``'s sync count plus one. Word
    counts are exact — ``OP_READ``/``OP_WRITE`` contribute their word
    tuples, the ``_N`` forms the sum over their page chunks — and are
    page-size independent (splitting an access never changes how many
    words it touches).

    This is the compute axis of the span timelines in
    :mod:`repro.obs.spans`: the record stream fixes *when* each sync
    window opens, and this profile fixes how much local work precedes
    it. Like the skeleton itself it depends only on (compiled trace,
    n_procs), never on the protocol or per-run config — so it is kept
    (shared, never mutated) on the batch plan once a replay has made
    one; every timeline asks again. The plan is read past
    :func:`batch_plan`: this is not a plan lookup, ``PLAN_STATS`` stays.
    """
    plan = compiled._batch_plans.get(n_procs)
    if plan is not None and plan._compute_profile is not None:
        return plan._compute_profile
    profile: List[List[int]] = [[] for _ in range(n_procs)]
    acc = [0] * n_procs
    for op in compiled.ops:
        code = op[0]
        if code == OP_READ or code == OP_WRITE:
            acc[op[1]] += len(op[3])
        elif code == OP_READ_N or code == OP_WRITE_N:
            acc[op[1]] += sum(len(words) for _, words in op[2])
        else:  # OP_ACQUIRE / OP_RELEASE / OP_BARRIER
            proc = op[1]
            profile[proc].append(acc[proc])
            acc[proc] = 0
    for proc in range(n_procs):
        profile[proc].append(acc[proc])
    if plan is not None:
        plan._compute_profile = profile
    return profile


def batch_plan(compiled: CompiledTrace, n_procs: int, trace=None) -> BatchPlan:
    """The (memoized) batch plan of ``compiled`` for ``n_procs``.

    Cached on the compiled trace itself, so all protocols of a sweep
    cell — and every best-of round of a benchmark — share one plan per
    (trace, page size, n_procs). ``trace`` is unused; only the frozen
    benchmark harness (``benchmarks/lrcbench``) still passes it.
    """
    plans = compiled._batch_plans
    plan = plans.get(n_procs)
    if plan is None:
        PLAN_STATS["plan_builds"] += 1
        plan = plans[n_procs] = BatchPlan(compiled, n_procs)
    else:
        PLAN_STATS["plan_hits"] += 1
    return plan
