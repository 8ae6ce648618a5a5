"""Suspend automatic cyclic garbage collection around an entry point.

The simulator's plan heap is large (hundreds of thousands of tuples per
cold grid) and holds no reference cycles — every entry point leaves
``gc.collect() == 0`` when run with the collector off, which
``tests/test_no_cyclic_garbage.py`` pins — so every traversal the cyclic
collector makes of it finds nothing. Reference counting frees what a run
drops; the collector's prior state comes back on exit.

The paused entry points: :func:`~repro.simulator.sweep.run_sweep` and its
pool worker's cell, :meth:`Engine.run <repro.simulator.engine.Engine.run>`
(and the test oracle's ``ReferenceEngine.run``, in
``tests/reference_oracle.py``) and
:func:`~repro.obs.spans.timeline_from_records` (a timeline is tens of
thousands of spans, none in a cycle).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Automatic cyclic collection off for the body, then as it was.

    Restores rather than enables: nested uses, and a caller that had
    already disabled the collector, leave it disabled; a body that
    raises restores it all the same. Also a decorator (``@gc_paused()``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
