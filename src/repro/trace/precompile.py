"""Trace precompilation: lowering a stream to page-size-specialized ops.

A :class:`TraceStream` is page-size independent (byte addresses); the
engine must split every ordinary access at page boundaries before calling
into the protocol. Inside a sweep the same trace is replayed once per
(protocol, page size) cell, so the same splits are recomputed for every
protocol at a given page size. :func:`compile_trace` performs that split
exactly once, producing a :class:`CompiledTrace` — a flat list of compact
instruction tuples the engine dispatches on directly. One compiled trace
is shared by all protocols at its page size (a 4x amortization in the
paper's sweeps), and :meth:`TraceStream.compiled` memoizes per page size
so even repeated :func:`~repro.simulator.engine.simulate` calls pay for
compilation once.

Instruction encoding (first element is the opcode):

==============  =======================================  =================
opcode          operands                                 engine action
==============  =======================================  =================
``OP_READ``     ``(proc, page, words)``                  single-page read
``OP_READ_N``   ``(proc, chunks)``                       multi-page read
``OP_WRITE``    ``(proc, page, words)``                  single-page write
``OP_WRITE_N``  ``(proc, chunks)``                       multi-page write
``OP_ACQUIRE``  ``(proc, lock)``                         lock acquire
``OP_RELEASE``  ``(proc, lock)``                         lock release
``OP_BARRIER``  ``(proc, barrier)``                      barrier arrival
==============  =======================================  =================

``words`` is an immutable tuple of word indices within the page;
``chunks`` is a tuple of ``(page, words)`` pairs in ascending page order.
The single-page forms cover the overwhelmingly common case (accesses
rarely straddle pages) and let the engine skip chunk iteration entirely.
There is exactly one op per event, so an op's position in ``ops`` is its
event's ``seq`` — the write-token space — and no op stores it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.types import words_in_range
from repro.trace.events import EventType

OP_READ = 0
OP_WRITE = 1
OP_READ_N = 2
OP_WRITE_N = 3
OP_ACQUIRE = 4
OP_RELEASE = 5
OP_BARRIER = 6

#: One chunk of a page-boundary-split access.
Chunk = Tuple[int, Tuple[int, ...]]


class CompiledTrace:
    """One trace lowered to instruction tuples for one page size."""

    __slots__ = ("page_size", "n_procs", "n_events", "ops", "_batch_plans")

    def __init__(self, page_size: int, n_procs: int, n_events: int, ops: List[tuple]):
        self.page_size = page_size
        self.n_procs = n_procs
        self.n_events = n_events
        self.ops = ops
        #: Memoized batch plans keyed by simulated n_procs (run program +
        #: happened-before skeleton, see :mod:`repro.hb.skeleton`) —
        #: shared by every protocol replay of this compiled trace.
        self._batch_plans: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (
            f"CompiledTrace(page_size={self.page_size}, "
            f"{self.n_events} events -> {len(self.ops)} ops)"
        )


def split_access(
    addr: int,
    size: int,
    page_size: int,
    _cache: Optional[Dict[Tuple[int, int], Tuple[Chunk, ...]]] = None,
) -> Tuple[Chunk, ...]:
    """Split a byte-range access into ``(page, words)`` chunks.

    ``words`` tuples are shared between identical ``(addr, size)`` pairs
    when a cache dict is supplied (traces revisit the same addresses
    constantly, so the hit rate is high).
    """
    if _cache is not None:
        cached = _cache.get((addr, size))
        if cached is not None:
            return cached
        key = (addr, size)
    else:
        key = None
    chunks: List[Chunk] = []
    cur = addr
    remaining = size
    while remaining > 0:
        page = cur // page_size
        chunks.append((page, tuple(words_in_range(cur, remaining, page_size))))
        covered = (page + 1) * page_size - cur
        cur += covered
        remaining -= covered
    result = tuple(chunks)
    if key is not None:
        _cache[key] = result
    return result


def compile_trace(trace, page_size: int) -> CompiledTrace:
    """Lower ``trace`` into a :class:`CompiledTrace` for ``page_size``.

    Splitting work is shared two ways: identical ``(addr, size)`` accesses
    reuse one chunk tuple (the per-compile cache below), and the whole
    compiled trace is reused across every protocol run at this page size.
    Columnar streams compile straight off their typed arrays — no Event
    objects are materialized. One op per event, in event order, and one
    op object per distinct ``(code, proc, value, size)`` row: the apps
    repeat their accesses every timestep, so an event whose row was
    lowered before re-appends that op. Both tables are dropped on return.
    """
    ops: List[tuple] = []
    append = ops.append
    cache: Dict[Tuple[int, int], Tuple[Chunk, ...]] = {}
    built: Dict[tuple, tuple] = {}
    get_columns = getattr(trace, "columns", None)
    if get_columns is not None:
        codes, procs, values, sizes = get_columns()
        rows = zip(codes, procs, values, sizes)
    else:  # duck-typed event sequences (external tracers)
        rows = (
            (
                0 if e.type is EventType.READ else
                1 if e.type is EventType.WRITE else
                2 if e.type is EventType.ACQUIRE else
                3 if e.type is EventType.RELEASE else 4,
                e.proc,
                e.addr if e.type.is_ordinary
                else (e.barrier if e.type is EventType.BARRIER else e.lock),
                e.size if e.type.is_ordinary else 0,
            )
            for e in trace
        )
    for row in rows:
        op = built.get(row)
        if op is None:
            op = built[row] = _lower(*row, page_size, cache)
        append(op)
    return CompiledTrace(page_size, trace.n_procs, len(trace), ops)


def _lower(
    code: int,
    proc: int,
    value: int,
    size: int,
    page_size: int,
    cache: Dict[Tuple[int, int], Tuple[Chunk, ...]],
) -> tuple:
    """The op of one event row ``(code, proc, value, size)``: ``code``
    0-4 is read, write, acquire, release, barrier; ``value`` the address
    or the lock or barrier id."""
    if code <= 1:
        chunks = split_access(value, size, page_size, cache)
        if len(chunks) == 1:
            page, words = chunks[0]
            return (OP_READ if code == 0 else OP_WRITE, proc, page, words)
        return (OP_READ_N if code == 0 else OP_WRITE_N, proc, chunks)
    if code == 2:
        return (OP_ACQUIRE, proc, value)
    if code == 3:
        return (OP_RELEASE, proc, value)
    return (OP_BARRIER, proc, value)
