"""Figures 3-14 — the paper's evaluation, regenerated.

Each evaluation figure pairs one SPLASH application with one metric:

========  ============  =========
Figure    Application   Metric
========  ============  =========
5 / 6     LocusRoute    messages / data
7 / 8     Cholesky      messages / data
9 / 10    MP3D          messages / data
11 / 12   Water         messages / data
13 / 14   PTHOR         messages / data
========  ============  =========

:func:`run_figure` generates the application's trace and sweeps the four
protocols over the paper's page sizes; :func:`expected_shapes` is the
view of :mod:`repro.experiments.claims` that judges one such sweep.
Figures 3/4 (the lock-chain example) are covered by
:func:`run_lock_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps import APPS
from repro.apps.synthetic import single_lock_chain
from repro.config import PAPER_PAGE_SIZES, SimConfig
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.simulator.sweep import SweepResult, check_jobs, run_sweep
from repro.trace.stream import TraceStream


@dataclass(frozen=True)
class FigureSpec:
    """One application's pair of figures."""

    app: str
    messages_figure: int
    data_figure: int


FIGURES: Dict[str, FigureSpec] = {
    "locusroute": FigureSpec("locusroute", 5, 6),
    "cholesky": FigureSpec("cholesky", 7, 8),
    "mp3d": FigureSpec("mp3d", 9, 10),
    "water": FigureSpec("water", 11, 12),
    "pthor": FigureSpec("pthor", 13, 14),
}


def run_figure(
    app: str,
    n_procs: int = 16,
    seed: int = 0,
    page_sizes: Optional[Sequence[int]] = None,
    trace: Optional[TraceStream] = None,
    jobs: Optional[int] = None,
    spans: bool = False,
    config: Optional[SimConfig] = None,
) -> SweepResult:
    """Regenerate one application's messages/data figures.

    The trace is the app's generator at its default scale (sized so that
    even 8192-byte pages see a multi-page working set) unless ``trace``
    passes a pre-generated one. ``jobs=N`` parallelizes the
    sweep grid over worker processes (see :func:`repro.simulator.sweep.run_sweep`);
    ``spans=True`` additionally attaches critical-path shape rollups to
    every cell. ``config`` overrides the base simulation config (its
    page size is replaced per cell) — the hook for timed sweeps, which
    set ``config.link_model``. A ``jobs`` below 1 is refused before the
    trace is generated.
    """
    check_jobs(jobs)
    if trace is None:
        trace = APPS[app](n_procs=n_procs, seed=seed)
    sizes = list(page_sizes) if page_sizes else list(PAPER_PAGE_SIZES)
    return run_sweep(
        trace,
        page_sizes=sizes,
        config=config or SimConfig(n_procs=trace.n_procs),
        jobs=jobs,
        spans=spans,
    )


#: A shape assertion: name -> predicate over one SweepResult.
ShapeCheck = Callable[[SweepResult], bool]


def expected_shapes(app: str) -> Dict[str, ShapeCheck]:
    """The paper's qualitative claims for one application's figures.

    A view of the ``figure:<app>`` entries of
    :data:`repro.experiments.claims.CLAIMS`, in registry order: each
    entry's statement -> its predicate over the app's sweep. lrcbench's
    ``sweep_cold`` judges its grid by these names.
    """
    from repro.experiments.claims import claims_for

    return {claim.text: claim.predicate for claim in claims_for(f"figure:{app}")}


def run_lock_chain(
    n_procs: int = 8, rounds: int = 8, page_size: int = 1024, seed: int = 0
) -> List[SimulationResult]:
    """Figures 3/4: repeated lock handoffs over one shared datum.

    Lazy protocols piggyback the datum's movement on the lock transfer;
    eager update re-updates every cached copy at every release.
    """
    trace = single_lock_chain(n_procs=n_procs, seed=seed, rounds=rounds)
    return [
        simulate(trace, protocol, page_size=page_size)
        for protocol in ("LI", "LU", "EI", "EU")
    ]
