"""repro — Lazy Release Consistency for software distributed shared memory.

A full reproduction of Keleher, Cox & Zwaenepoel, *Lazy Release
Consistency for Software Distributed Shared Memory* (ISCA 1992): the four
coherence protocols (LI, LU, EI, EU), the trace-driven protocol simulator
that counts messages and data, a deterministic execution engine standing
in for the Tango tracer, SPLASH-like workload kernels, and an end-to-end
release-consistency checker.

Quickstart::

    from repro import simulate, SimConfig
    from repro.apps import locusroute

    trace = locusroute.generate(n_procs=16, seed=1)
    for protocol in ("LI", "LU", "EI", "EU"):
        result = simulate(trace, protocol, page_size=4096)
        print(result.summary_row())
"""

__version__ = "1.0.0"

#: The re-exports, by the subpackage that defines them. Resolved on
#: first attribute access (PEP 562), so ``import repro`` — which every
#: ``python -m repro.cli`` start pays — imports no simulator module.
_EXPORTS = {
    "repro.common": ("VectorClock",),
    "repro.memory": ("AddressSpace", "Diff", "Page", "PageTable"),
    "repro.network": ("CostModel", "Network", "NetworkStats"),
    "repro.protocols": (
        "Protocol",
        "LazyInvalidate",
        "LazyUpdate",
        "EagerInvalidate",
        "EagerUpdate",
        "PROTOCOLS",
        "protocol_class",
        "protocol_names",
    ),
    "repro.simulator": (
        "Engine",
        "SimConfig",
        "SimulationResult",
        "SweepResult",
        "run_sweep",
        "simulate",
        "PAPER_PAGE_SIZES",
        "PAPER_N_PROCS",
    ),
    "repro.trace": ("Event", "EventType", "TraceMeta", "TraceStream", "load_trace", "save_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(module), name)
    return value
