"""Trace-driven protocol simulator (§5.1).

Feed a :class:`~repro.trace.stream.TraceStream` and a
:class:`~repro.config.SimConfig` to :class:`Engine` (or the
:func:`simulate` convenience wrapper) to obtain a
:class:`~repro.simulator.results.SimulationResult` with the message and
data totals the paper plots. :mod:`repro.simulator.sweep` reruns one trace
across protocols and page sizes; :mod:`repro.simulator.costs` is the
analytical Table-1 cost model.
"""

from repro.config import SimConfig, PAPER_PAGE_SIZES, PAPER_N_PROCS
from repro.simulator.engine import Engine, simulate
from repro.simulator.results import SimulationResult
from repro.simulator.sweep import SweepResult, run_sweep

__all__ = [
    "SimConfig",
    "PAPER_PAGE_SIZES",
    "PAPER_N_PROCS",
    "Engine",
    "simulate",
    "SimulationResult",
    "SweepResult",
    "run_sweep",
]
