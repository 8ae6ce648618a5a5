"""Access-run segmentation: the lazy family's tape-replay instruction stream.

A compiled trace (:mod:`repro.trace.precompile`) still carries one
instruction per ordinary access. Under lazy release consistency that is
far more than the protocol can see: consistency information reaches a
processor only at its own acquires and at barrier exits (§4.2), so
between two of its synchronization operations a page that has serviced
its miss stays valid, and every later access of that (processor, page)
*span* — read or write, LH's used-since-pull flag included — finds
nothing left to do. What the span writes is already in the
happened-before skeleton's prebuilt diffs. An access run is therefore
its span's first touch and nothing else, and the *run program* built
here is the trace with each span collapsed to that one instruction.

Run instruction encoding (``(kind, proc, value)`` 3-tuples):

==============  ==========================================================
kind            meaning
==============  ==========================================================
``R_TOUCH``     first access of a (proc, page) span, read or write alike:
                one miss check on page ``value``
``R_ACQUIRE``   lock acquire (``value`` is the lock id)
``R_RELEASE``   lock release
``R_BARRIER``   barrier arrival (``value`` is the barrier id)
==============  ==========================================================

The three synchronization kinds *are* the compiled opcodes, and a sync
instruction is the compiled op tuple itself, not a copy (as in an eager
walk's step, :func:`repro.hb.skeleton.eager_steps`). The apps reopen the
same spans every timestep, so each (proc, page) has one touch tuple,
shared by every span of it. A span ends at its processor's own
synchronization operations and, for everyone, at each barrier
completion. The program carries no values: page contents exist only on
the ``record_values`` interpreter (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set, Tuple

from repro.trace.precompile import (
    OP_ACQUIRE,
    OP_BARRIER,
    OP_READ,
    OP_READ_N,
    OP_RELEASE,
    OP_WRITE,
    OP_WRITE_N,
)

R_TOUCH = 0  # any code the three sync opcodes do not use
R_ACQUIRE = OP_ACQUIRE
R_RELEASE = OP_RELEASE
R_BARRIER = OP_BARRIER


def segment_runs(ops: List[tuple], n_procs: int) -> Tuple[List[tuple], array]:
    """Segment compiled ``ops`` into the run program for ``n_procs``.

    One pass over the ops; ``open_pages[proc]`` holds the pages
    of ``proc``'s live spans, and ``touches[proc]`` the one touch tuple
    each (proc, page) gets however many of its spans the program opens
    (dropped on return). The program stays in strict trace order
    with every touch at its span's first access. Returns the
    instructions and, beside them, each one's position in ``ops`` — the
    op a send log files the instruction's messages under.

    Barrier completions are detected by counting arrivals per barrier id
    against ``n_procs`` (mirroring :class:`~repro.sync.barrier.BarrierMaster`,
    which is sized by the simulated processor count, not the trace's); a
    completion ends every processor's open spans, since the exit notices
    may invalidate any page anywhere.
    """
    instructions: List[tuple] = []
    append = instructions.append
    positions = array("I")
    at = positions.append
    open_pages: List[Set[int]] = [set() for _ in range(n_procs)]
    touches: List[Dict[int, tuple]] = [{} for _ in range(n_procs)]
    arrivals: Dict[int, int] = {}
    for pos, op in enumerate(ops):
        code = op[0]
        if code == OP_READ or code == OP_WRITE:
            proc, page = op[1], op[2]
            opened = open_pages[proc]
            if page not in opened:
                opened.add(page)
                touch = touches[proc].get(page)
                if touch is None:
                    touch = touches[proc][page] = (R_TOUCH, proc, page)
                append(touch)
                at(pos)
        elif code == OP_READ_N or code == OP_WRITE_N:  # one span per page
            proc = op[1]
            opened = open_pages[proc]
            for page, _words in op[2]:
                if page not in opened:
                    opened.add(page)
                    touch = touches[proc].get(page)
                    if touch is None:
                        touch = touches[proc][page] = (R_TOUCH, proc, page)
                    append(touch)
                    at(pos)
        else:
            open_pages[op[1]].clear()
            append(op)
            at(pos)
            if code == OP_BARRIER:
                count = arrivals.get(op[2], 0) + 1
                if count == n_procs:
                    count = 0
                    for opened in open_pages:
                        opened.clear()
                arrivals[op[2]] = count
    return instructions, positions
