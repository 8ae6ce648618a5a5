"""The five workloads: what each sets up, drives, and checks.

Every workload follows one shape. ``setup`` generates the inputs from
the seed (and prebuilds whatever cache state the workload's name
promises); ``drive`` is the timed region and returns raw results;
``judge`` runs after the clock stops and turns the raw results into
ledger digests, exact counts and check failures. A stopwatch is passed
to ``drive``: disabled on the passes that produce the end-to-end
numbers, enabled on the traced pass that produces the per-layer ones.

Span names are the per-layer metric names of ``BENCHMARK.json``, so a
span's self time *is* the metric; spans with other names (``pass``,
``trace.validate``, ``harness.*``) are the harness's own glue.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.critical_path import analyze_critical_path
from repro.analysis.report import format_figure_table
from repro.apps import APPS, generate
from repro.config import SimConfig
from repro.experiments.figures import FIGURES, expected_shapes
from repro.hb.skeleton import batch_plan, plan_stats
from repro.network.link import LinkModel
from repro.obs.probe import RecordingProbe
from repro.obs.sinks import ColumnarSink
from repro.obs.spans import SpanProbe, timeline_from_records
from repro.simulator.engine import Engine
from repro.simulator.shm import SharedTraceColumns
from repro.simulator.sweep import SweepResult, run_sweep
from repro.trace import load_trace, save_trace, validate_trace

from benchmarks.lrcbench import spec
from benchmarks.lrcbench.stopwatch import Stopwatch

#: ``SimulationResult.to_dict`` keys that only exist on observed or
#: timed runs. They are digested apart from the counting ledger, so the
#: cross-path check (cold == warm == jobs=2 == timed == observed) can
#: compare the part every path must agree on.
_EXTRA_KEYS = ("metrics", "timing", "critical_path")

#: One (key, result) row per completed cell. A key is
#: ``app/protocol/page_size[/variant]``; its first three parts name the
#: counting ledger the cell must reproduce.
Rows = List[Tuple[str, object]]


def ledger(result) -> Tuple[str, str]:
    """``(counting digest, extras digest or "")`` of one result."""
    body = result.to_dict()
    body.pop("manifest", None)
    extras = {key: body.pop(key) for key in _EXTRA_KEYS if key in body}
    return spec.digest(body), (spec.digest(extras) if extras else "")


@dataclass
class Raw:
    """What a timed ``drive`` hands to the untimed ``judge``."""

    rows: Rows = field(default_factory=list)
    #: ``(label, cells lost, message)`` for every call that raised.
    errors: List[Tuple[str, int, str]] = field(default_factory=list)
    plan_delta: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """One pass (or the final checks), judged."""

    events: int = 0
    attempted: int = 0
    #: Failed item (cell key, command or check label) -> why. One entry
    #: per item, however many checks it failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: key -> (counting digest, extras digest)
    cells: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Exact counts and program-reported seconds summed over the pass.
    counts: Dict[str, float] = field(default_factory=dict)


@contextmanager
def _guard(raw: Raw, label: str, cells: int) -> Iterator[None]:
    """A raising call loses ``cells`` cells, not the run.

    This is the boundary that must keep running: the failure is counted
    against ``attempted`` and the traceback goes to stderr.
    """
    try:
        yield
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        raw.errors.append((label, cells, f"{type(exc).__name__}: {exc}"))


def expect(out: Outcome, label: str, ok: bool, message: str) -> None:
    """One workload-level check: counts as attempted, fails with ``message``."""
    out.attempted += 1
    if not ok:
        out.failures[label] = message


def _plan_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = plan_stats()
    return {key: after[key] - before[key] for key in after}


def _builds(delta: Dict[str, int]) -> Tuple[int, int]:
    """``(plan builds, tape builds)`` of a plan-cache delta."""
    return (
        delta.get("plan_builds", 0),
        delta.get("lazy_tape_builds", 0) + delta.get("eager_tape_builds", 0),
    )


def run_cell(sw: Stopwatch, trace, protocol: str, page_size: int, config: SimConfig, probe=None):
    """One ``Engine(...).run()`` under a span, split by its own manifest.

    The span is named for what is left once the program-reported
    replay and plan-binding seconds are taken out: engine construction,
    manifest, digest and result assembly.
    """
    compiled = trace.compiled(page_size)
    with sw.span("simulator.overhead_s"):
        engine = Engine(
            trace, config.with_page_size(page_size), protocol, compiled=compiled, probe=probe
        )
        result = engine.run()
        timings = result.manifest["timings_s"]
        layer = "network.timed_s." if config.link_model is not None else "protocols.replay_s."
        sw.attribute(layer + protocol, timings["simulate_s"])
        sw.attribute("hb.bind_s", timings.get("batch_plan_s", 0.0))
    return result


def prepare_cell(
    sw: Stopwatch, trace, protocol: str, page_size: int, config: SimConfig, count: bool
) -> None:
    """Build, under spans, what ``Engine.run()`` would build lazily.

    Everything here is memoized on the trace, so the engine call that
    follows finds it built and a second call costs microseconds. The
    order (compile, segment, skeleton, tape) is the order a cold
    ``run_sweep`` cell reaches them in. ``count`` is set on the first
    visit to a (trace, page size), so the run program is counted once.
    """
    with sw.span("trace.compile_s"):
        compiled = trace.compiled(page_size)
    plan = batch_plan(compiled, trace.n_procs, trace=trace)
    with sw.span("trace.segment_s"):
        runs = plan.runs
    if count:
        sw.count("trace.run_instructions", len(runs))
        sw.count("trace.run_events", len(trace))
    if protocol in spec.EAGER_PROTOCOLS:
        with sw.span("hb.eager_tape_s"):
            plan.eager_tape(protocol)
    else:
        with sw.span("hb.skeleton_s"):
            plan.skeleton
        with sw.span("hb.lazy_tape_s"):
            plan.lazy_tape(
                config.cost_model, config.piggyback_notices, config.free_local_lock_reacquire
            )


def staged_grid(
    sw: Stopwatch, trace, protocols: Sequence[str], page_sizes: Sequence[int], config: SimConfig
) -> Rows:
    """``run_sweep``'s serial grid, cell order included, stage by stage."""
    app = trace.meta.app
    rows: Rows = []
    for protocol in protocols:
        for page_size in page_sizes:
            prepare_cell(sw, trace, protocol, page_size, config, count=protocol == protocols[0])
            result = run_cell(sw, trace, protocol, page_size, config)
            rows.append((f"{app}/{protocol}/{page_size}", result))
    return rows


def sweep_rows(sweep: SweepResult, variant: str = "") -> Rows:
    return [
        (f"{sweep.app}/{protocol}/{page_size}{variant}", result)
        for (protocol, page_size), result in sweep.grid.items()
    ]


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def harvest(rows: Rows, counts: Dict[str, float]) -> None:
    """Sum the simulated counts and reported seconds the results carry."""
    for _key, result in rows:
        timings = result.manifest["timings_s"]
        _add(counts, "events", result.events)
        _add(counts, "network.messages", result.messages)
        _add(counts, "network.data_bytes", result.data_bytes)
        _add(counts, "protocols.cold_misses", result.cold_misses)
        _add(counts, "protocols.invalid_misses", result.invalid_misses)
        _add(counts, "protocols.diffs_fetched", result.diffs_fetched)
        if result.timing is None:
            _add(counts, "protocols.replay_s." + result.protocol, timings["simulate_s"])
        else:
            _add(counts, "network.timed_s." + result.protocol, timings["simulate_s"])
            _add(counts, "network.retries", result.timing["retries"])
            _add(counts, "network.sim_completion_s", result.timing["completion_s"])
            _add(counts, "network.sim_stall_s", sum(result.timing["stall_s"].values()))


class Workload:
    """Shared set-up, ledger checks and bookkeeping of the five workloads."""

    name = ""
    apps: Tuple[str, ...] = ()

    def __init__(self, seed: int, reference: Optional[Dict[str, Dict[str, str]]]):
        self.seed = seed
        #: ``{"counting": {...}, "extras": {...}}`` when the committed
        #: reference covers this seed, else None.
        self.reference = reference
        self.config = SimConfig(n_procs=spec.N_PROCS)
        self.work = spec.WORK_DIR / f"{self.name}-{os.getpid()}"
        self.paths: Dict[str, str] = {}
        self.traces: Dict[str, object] = {}
        #: Counting digests of the workload's own second path (prebuilt
        #: cold run, tape run, probe-off run): base key -> digest.
        self.baseline: Dict[str, str] = {}
        #: Counts and reported seconds of the latest set-up.
        self.setup_counts: Dict[str, float] = {}

    # -- set-up ----------------------------------------------------------------

    def setup(self, sw: Stopwatch) -> None:
        """Generate, save, load and validate the inputs, then ``prepare``."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.traces = {}
        self.baseline = {}
        self.setup_counts = {"trace.trcb_bytes": 0, "apps.events": 0}
        for app in self.apps:
            with sw.span("apps.generate_s"):
                trace = generate(
                    app, n_procs=spec.N_PROCS, seed=self.seed, **spec.app_params(app)
                )
            path = str(self.work / f"{app}.trcb")
            with sw.span("trace.save_trcb_s"):
                save_trace(trace, path)
            with sw.span("trace.load_trcb_s"):
                trace = load_trace(path)
            with sw.span("trace.validate"):
                validate_trace(trace)
            self.paths[app] = path
            self.traces[app] = trace
            self.setup_counts["trace.trcb_bytes"] += os.path.getsize(path)
            self.setup_counts["apps.events"] += len(trace)
        self.prepare(sw)

    def prepare(self, sw: Stopwatch) -> None:
        """Workload-specific cache state; nothing by default."""

    def release(self) -> None:
        """Drop what the previous pass left behind, before the clock starts."""

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- the timed region and its judgement ------------------------------------

    def drive(self, sw: Stopwatch) -> Raw:
        raise NotImplementedError

    def judge(self, raw: Raw) -> Outcome:
        out = Outcome()
        out.attempted = len(raw.rows) + sum(cells for _label, cells, _msg in raw.errors)
        for label, cells, message in raw.errors:
            for index in range(cells):
                out.failures[f"{label}#{index}"] = f"raised {message}"
        harvest(raw.rows, out.counts)
        out.events = int(out.counts.get("events", 0))
        out.cells = {key: ledger(result) for key, result in raw.rows}
        out.failures.update(self.check_cells(out.cells))
        if raw.plan_delta:
            # Only a drive that snapshots the plan cache reports on it,
            # and a ratio needs lookups to be a ratio of.
            plan_builds, tape_builds = _builds(raw.plan_delta)
            lookups = sum(raw.plan_delta.values())
            out.counts["hb.plan_builds"] = plan_builds
            out.counts["hb.tape_builds"] = tape_builds
            if lookups:
                out.counts["hb.cache_hit_ratio"] = (lookups - plan_builds - tape_builds) / lookups
        return out

    def check_cells(self, cells: Dict[str, Tuple[str, str]]) -> Dict[str, str]:
        """Ledger failures by cell key."""
        failures = {}
        reference = self.reference
        for key, (counting, extras) in cells.items():
            base = spec.base_key(key)
            if base in self.baseline and self.baseline[base] != counting:
                failures[key] = "counting ledger differs from this workload's other path"
            elif reference is not None and reference["counting"].get(base) != counting:
                failures[key] = "counting ledger differs from the committed reference"
            elif reference is not None and extras and reference["extras"].get(key) != extras:
                failures[key] = "timing/metrics ledger differs from the committed reference"
        return failures

    def finish(self, sw: Stopwatch) -> Outcome:
        """Checks that need a second run, after the measured passes."""
        return Outcome()

    def layer_extras(
        self, traced: Dict[str, float], finish: Dict[str, float]
    ) -> Dict[str, float]:
        """Per-layer metrics that are not a span's self time or a plain count.

        ``traced`` holds the traced passes' counts and reported seconds
        (medians over the passes), ``finish`` those of :meth:`finish`.
        """
        return {}


_GRID_CELLS = len(spec.PROTOCOLS) * len(spec.PAGE_SIZES)


def _first_touch(cold: Dict[str, float], warm: Dict[str, float], warm_rounds: int = 1):
    """Cold minus warm replay seconds per protocol: the planner memo fill."""
    return {
        "protocols.first_touch_s." + p: cold.get("protocols.replay_s." + p, 0.0)
        - warm.get("protocols.replay_s." + p, 0.0) / warm_rounds
        for p in spec.PROTOCOLS
    }


class SweepCold(Workload):
    """The figures grid as a user runs it: fresh load, serial ``run_sweep``."""

    name = "sweep_cold"
    apps = tuple(APPS)

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self._last_traces: Dict[str, object] = {}

    def prepare(self, sw: Stopwatch) -> None:
        # The passes load their own copies; holding these would only
        # inflate the resident set the workload is measured at.
        self.traces = {}

    def release(self) -> None:
        # Every pass must start from the same heap: a pass that runs
        # while the previous pass's plans and tapes are still alive pays
        # ~15 % more (collector work grows with the live heap).
        self._last_traces = {}

    def drive(self, sw: Stopwatch) -> Raw:
        raw = Raw()
        before = plan_stats()
        sweeps: Dict[str, SweepResult] = {}
        for app in self.apps:
            with _guard(raw, app, _GRID_CELLS):
                with sw.span("trace.load_trcb_s"):
                    trace = load_trace(self.paths[app])
                if sw.enabled:
                    rows = staged_grid(sw, trace, spec.PROTOCOLS, spec.PAGE_SIZES, self.config)
                    sweep = SweepResult(
                        app=app,
                        protocols=list(spec.PROTOCOLS),
                        page_sizes=list(spec.PAGE_SIZES),
                        grid={(r.protocol, r.page_size): r for _key, r in rows},
                    )
                else:
                    sweep = run_sweep(trace, protocols=spec.PROTOCOLS, page_sizes=spec.PAGE_SIZES)
                    rows = sweep_rows(sweep)
                raw.rows += rows
                sweeps[app] = sweep
                self._last_traces[app] = trace
        raw.plan_delta = _plan_delta(before)
        raw.extra["sweeps"] = sweeps
        return raw

    def judge(self, raw: Raw) -> Outcome:
        out = super().judge(raw)
        if not self.baseline:
            # The first pass is the path every later pass, staged or
            # not, must reproduce.
            self.baseline = {spec.base_key(k): c for k, (c, _e) in out.cells.items()}
        sweeps = raw.extra["sweeps"]
        plan_builds, _tapes = _builds(raw.plan_delta)
        expected = len(sweeps) * len(spec.PAGE_SIZES)
        expect(
            out, "plan_builds", plan_builds == expected,
            f"cold pass built {plan_builds} plans, expected {expected} (apps x page sizes)",
        )
        for app, sweep in sweeps.items():
            broken = [name for name, holds in expected_shapes(app).items() if not holds(sweep)]
            expect(out, f"shapes/{app}", not broken, f"paper shapes do not hold: {broken}")
        return out

    def finish(self, sw: Stopwatch) -> Outcome:
        """Re-run the last pass's traces warm: same ledgers, nothing built."""
        raw = Raw()
        before = plan_stats()
        for app, trace in self._last_traces.items():
            with _guard(raw, f"{app}/warm", _GRID_CELLS):
                raw.rows += sweep_rows(
                    run_sweep(trace, protocols=spec.PROTOCOLS, page_sizes=spec.PAGE_SIZES),
                    "/warm",
                )
        raw.plan_delta = _plan_delta(before)
        out = Workload.judge(self, raw)
        expect(
            out, "warm_builds", _builds(raw.plan_delta) == (0, 0),
            f"warm re-run rebuilt plans or tapes: {raw.plan_delta}",
        )
        return out

    def layer_extras(self, traced, finish):
        return _first_touch(traced, finish)


class ReplayWarm(Workload):
    """The same cells with every plan, tape and planner memo prebuilt."""

    name = "replay_warm"
    apps = tuple(APPS)
    rounds = 2

    def prepare(self, sw: Stopwatch) -> None:
        rows: Rows = []
        for app in self.apps:
            rows += staged_grid(sw, self.traces[app], spec.PROTOCOLS, spec.PAGE_SIZES, self.config)
        harvest(rows, self.setup_counts)
        self.baseline = {key: ledger(result)[0] for key, result in rows}

    def drive(self, sw: Stopwatch) -> Raw:
        raw = Raw()
        before = plan_stats()
        for index in range(self.rounds):
            variant = f"/r{index}"
            for app in self.apps:
                trace = self.traces[app]
                with _guard(raw, app + variant, _GRID_CELLS):
                    if sw.enabled:
                        raw.rows += [
                            (f"{app}/{p}/{s}{variant}", run_cell(sw, trace, p, s, self.config))
                            for p in spec.PROTOCOLS
                            for s in spec.PAGE_SIZES
                        ]
                    else:
                        raw.rows += sweep_rows(
                            run_sweep(trace, protocols=spec.PROTOCOLS, page_sizes=spec.PAGE_SIZES),
                            variant,
                        )
        raw.plan_delta = _plan_delta(before)
        return raw

    def judge(self, raw: Raw) -> Outcome:
        out = super().judge(raw)
        expect(
            out, "warm_builds", _builds(raw.plan_delta) == (0, 0),
            f"warm pass rebuilt plans or tapes: {raw.plan_delta}",
        )
        return out

    def layer_extras(self, traced, finish):
        return _first_touch(self.setup_counts, traced, self.rounds)


class TimedLossy(Workload):
    """Timed mode over an ideal and a lossy link: the per-event loop."""

    name = "timed_lossy"
    apps = spec.TIMED_APPS

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.links = {
            "ideal": LinkModel.ideal(),
            "lossy": LinkModel.ethernet_1992(**spec.LOSSY_LINK),
        }
        self._tape_replay_s = 0.0

    def grid(self) -> Iterator[Tuple[str, str, int]]:
        for app in self.apps:
            for protocol in spec.PAPER_PROTOCOLS:
                for page_size in spec.TIMED_PAGE_SIZES:
                    yield app, protocol, page_size

    def prepare(self, sw: Stopwatch) -> None:
        # Counting (tape) runs of the same cells: first cold, for the
        # ledgers timed mode must reproduce; then warm, for the replay
        # time the timed/tape ratio is taken against.
        for app, protocol, page_size in self.grid():
            prepare_cell(
                sw, self.traces[app], protocol, page_size, self.config,
                count=protocol == spec.PAPER_PROTOCOLS[0],
            )
            cold = run_cell(sw, self.traces[app], protocol, page_size, self.config)
            self.baseline[f"{app}/{protocol}/{page_size}"] = ledger(cold)[0]
        self._tape_replay_s = sum(
            run_cell(sw, self.traces[app], protocol, page_size, self.config)
            .manifest["timings_s"]["simulate_s"]
            for app, protocol, page_size in self.grid()
        )

    def drive(self, sw: Stopwatch) -> Raw:
        raw = Raw()
        for link_name, link in self.links.items():
            config = self.config.with_options(link_model=link)
            for app, protocol, page_size in self.grid():
                key = f"{app}/{protocol}/{page_size}/{link_name}"
                with _guard(raw, key, 1):
                    raw.rows.append(
                        (key, run_cell(sw, self.traces[app], protocol, page_size, config))
                    )
        return raw

    def judge(self, raw: Raw) -> Outcome:
        out = super().judge(raw)
        for key, result in raw.rows:
            for row in result.timing["per_proc"]:
                drift = row["busy_s"] + sum(row["stall_s"].values()) - row["finish_s"]
                if abs(drift) > 1e-9:
                    out.failures.setdefault(
                        key, f"proc {row['proc']}: busy + stalls != finish ({drift:+.3e} s)"
                    )
        return out

    def layer_extras(self, traced, finish):
        timed = sum(traced.get("network.timed_s." + p, 0.0) for p in spec.PAPER_PROTOCOLS)
        tape = self._tape_replay_s * len(self.links)
        return {"network.timed_vs_tape_ratio": timed / tape if tape else 0.0}


class Observed(Workload):
    """The replay layer with observers attached, plans prebuilt."""

    name = "observed"
    apps = spec.TIMED_APPS
    #: variant -> (protocols, probe factory, observer-cost metric)
    variants = {
        "metrics": (spec.PROTOCOLS, RecordingProbe, "obs.metrics_ratio"),
        "sink": (
            spec.PROTOCOLS,
            lambda: RecordingProbe(sinks=[ColumnarSink()]),
            "obs.sink_ratio",
        ),
        "spans": (spec.PAPER_PROTOCOLS, SpanProbe, "obs.span_record_ratio"),
    }

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        #: Warm probe-off replay seconds by ``app/protocol``.
        self._off_s: Dict[str, float] = {}

    def prepare(self, sw: Stopwatch) -> None:
        # Probe-off runs of the same cells: cold (builds the plans and
        # gives the ledgers observation must not change), then warm (the
        # denominator of the observer-cost ratios).
        page = spec.OBSERVED_PAGE_SIZE
        for app in self.apps:
            for protocol in spec.PROTOCOLS:
                prepare_cell(
                    sw, self.traces[app], protocol, page, self.config,
                    count=protocol == spec.PROTOCOLS[0],
                )
                cold = run_cell(sw, self.traces[app], protocol, page, self.config)
                self.baseline[f"{app}/{protocol}/{page}"] = ledger(cold)[0]
        self._off_s = {
            f"{app}/{protocol}": run_cell(sw, self.traces[app], protocol, page, self.config)
            .manifest["timings_s"]["simulate_s"]
            for app in self.apps
            for protocol in spec.PROTOCOLS
        }

    def drive(self, sw: Stopwatch) -> Raw:
        raw = Raw()
        page = spec.OBSERVED_PAGE_SIZE
        span_records = 0
        for variant, (protocols, make_probe, _metric) in self.variants.items():
            for app in self.apps:
                trace = self.traces[app]
                for protocol in protocols:
                    key = f"{app}/{protocol}/{page}/{variant}"
                    with _guard(raw, key, 1):
                        probe = make_probe()
                        try:
                            result = run_cell(sw, trace, protocol, page, self.config, probe)
                        finally:
                            probe.close()
                        if variant == "spans":
                            with sw.span("obs.timeline_s"):
                                timeline = timeline_from_records(
                                    probe.records, trace.compiled(page), spec.N_PROCS,
                                    app=app, protocol=protocol,
                                )
                            with sw.span("analysis.critical_path_s"):
                                result.spans = analyze_critical_path(timeline).rollups()
                            span_records += len(probe.records)
                        raw.rows.append((key, result))
        raw.extra["span_records"] = span_records
        return raw

    def judge(self, raw: Raw) -> Outcome:
        out = super().judge(raw)
        out.counts["obs.span_records"] = raw.extra["span_records"]
        on: Dict[str, float] = {}
        off: Dict[str, float] = {}
        for key, result in raw.rows:
            app, protocol, _page, variant = key.split("/")
            _add(on, variant, result.manifest["timings_s"]["simulate_s"])
            _add(off, variant, self._off_s[f"{app}/{protocol}"])
        for variant, (_protocols, _probe, metric) in self.variants.items():
            out.counts[metric] = on.get(variant, 0.0) / off[variant] if off.get(variant) else 0.0
        return out

def _load_trace_smoke():
    """``scripts/trace_smoke.py``'s ``validate`` — the repo's span-file gate."""
    path = spec.ROOT / "scripts" / "trace_smoke.py"
    module_spec = importlib.util.spec_from_file_location("lrcbench_trace_smoke", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.validate


class CliCold(Workload):
    """What a shell user waits on: five commands, each a cold subprocess."""

    name = "cli_cold"
    apps = ("water",)
    protocol = "LI"
    page_size = 2048

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.run_scale = spec.SCALE * spec.CLI_RUN_SCALE_FACTOR
        self.run_key = f"water-x{spec.CLI_RUN_SCALE_FACTOR}/{self.protocol}/{self.page_size}"
        self.spans_path = self.work / "spans.json"
        #: command -> text its stdout must contain / events it replays.
        self._expected: Dict[str, str] = {}
        self._events: Dict[str, int] = {}
        self._run_ledger: Tuple[str, str] = ("", "")
        self._serial: Optional[SweepResult] = None
        self._validate_spans = _load_trace_smoke()

    def commands(self) -> List[Tuple[str, List[str]]]:
        """``(span name, lrc-sim arguments)`` in the order a pass runs them."""
        common = ["--app", "water", "--seed", str(self.seed)]
        cell = ["--protocol", self.protocol, "--page-size", str(self.page_size)]
        grid_scale = ["--scale", str(spec.SCALE)]
        return [
            ("cli.run_s", ["run", *common, "--scale", str(self.run_scale), *cell]),
            ("cli.sweep_jobs2_s", ["sweep", *common, *grid_scale, "--jobs", "2"]),
            (
                "cli.report_timing_s",
                ["report", *common, *grid_scale, *cell,
                 "--network", "ethernet_1992,loss=0.02", "--timing"],
            ),
            (
                "cli.trace_spans_s",
                ["trace", *common, *grid_scale, *cell, "--spans", str(self.spans_path)],
            ),
            ("cli.startup_s", ["-h"]),
        ]

    def prepare(self, sw: Stopwatch) -> None:
        # What the commands must print, computed in-process from the
        # same seed: the CLI is checked against the library, and the
        # library against the reference ledgers.
        with sw.span("harness.expected"):
            big = generate("water", n_procs=spec.N_PROCS, seed=self.seed, scale=self.run_scale)
            prepare_cell(sw, big, self.protocol, self.page_size, self.config, count=True)
            result = run_cell(sw, big, self.protocol, self.page_size, self.config)
            self._serial = run_sweep(self.traces["water"])
        figure = FIGURES["water"]
        self._expected = {
            "cli.run_s": result.summary_row(),
            "cli.sweep_jobs2_s": "\n\n".join(
                format_figure_table(self._serial, f"Figure {number}", metric)
                for number, metric in (
                    (figure.messages_figure, "messages"),
                    (figure.data_figure, "data"),
                )
            ),
            "cli.report_timing_s": "epoch sums == run totals",
            "cli.trace_spans_s": "span timeline ->",
            "cli.startup_s": "lrc-sim",
        }
        grid = len(self.traces["water"])
        self._events = {
            "cli.run_s": len(big),
            "cli.sweep_jobs2_s": grid * len(self._serial.grid),
            # The span-traced run of the reported protocol plus one
            # timed run of each of the other six.
            "cli.report_timing_s": grid * len(spec.PROTOCOLS),
            "cli.trace_spans_s": grid,
            "cli.startup_s": 0,
        }
        self._run_ledger = ledger(result)

    def drive(self, sw: Stopwatch) -> Raw:
        raw = Raw()
        env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE_CACHE"}
        env["PYTHONPATH"] = str(spec.ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        outputs = []
        for name, argv in self.commands():
            try:
                with sw.span(name):
                    done = subprocess.run(
                        [sys.executable, "-m", "repro.cli", *argv],
                        cwd=str(spec.ROOT), env=env, text=True,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        timeout=spec.CLI_TIMEOUT_S,
                    )
                outputs.append((name, done.returncode, done.stdout, done.stderr))
            except (subprocess.TimeoutExpired, OSError) as exc:
                # A command that hangs or cannot start is one failed
                # command, not a dead worker. ``run`` has killed and
                # reaped the child by the time the timeout surfaces.
                outputs.append((name, None, "", f"{type(exc).__name__}: {exc}"))
        raw.extra["outputs"] = outputs
        return raw

    def judge(self, raw: Raw) -> Outcome:
        out = Outcome()
        for name, code, stdout, stderr in raw.extra["outputs"]:
            out.attempted += 1
            out.events += self._events[name]
            if code is None:
                out.failures[name] = f"did not complete: {stderr[:200]}"
            elif code != 0:
                out.failures[name] = f"exit code {code}: {stderr.strip()[-200:]}"
            elif self._expected[name] not in stdout:
                out.failures[name] = f"output lacks {self._expected[name][:60]!r}"
            elif name == "cli.trace_spans_s":
                try:
                    self._validate_spans(str(self.spans_path))
                except (ValueError, OSError) as exc:
                    out.failures[name] = f"span file fails scripts/trace_smoke.py: {exc}"
        out.counts["events"] = out.events
        # The one ledger this workload owns: the ``run`` command's cell,
        # tied to the in-process result by the stdout match above.
        out.cells = {self.run_key: self._run_ledger}
        out.failures.update(self.check_cells(out.cells))
        return out

    def finish(self, sw: Stopwatch) -> Outcome:
        """``jobs=2`` against serial on the water grid, and what the pool costs.

        Both sides of ``simulator.pool_speedup`` start from a freshly
        loaded trace with nothing memoized on it — the state the
        ``jobs=2`` workers always start from, since they attach the
        trace through shared memory and build their own plans. The
        samples alternate which side runs first; the metric is the
        median of the per-pair ratios.
        """
        raw = Raw()
        self.baseline = {key: ledger(r)[0] for key, r in sweep_rows(self._serial)}
        path = self.paths["water"]
        ratios = []
        with _guard(raw, "water/jobs2", len(self._serial.grid) * spec.POOL_SAMPLES):
            with sw.span("simulator.shm_setup_s"):
                with SharedTraceColumns(self.traces["water"]):
                    pass
            for index in range(spec.POOL_SAMPLES):
                seconds = {}
                for jobs in (1, 2) if index % 2 == 0 else (2, 1):
                    trace = load_trace(path)
                    gc.collect()
                    t0 = time.perf_counter()
                    sweep = run_sweep(trace, jobs=jobs)
                    seconds[jobs] = time.perf_counter() - t0
                    raw.rows += sweep_rows(sweep, f"/jobs{jobs}.{index}")
                ratios.append(seconds[1] / seconds[2])
        out = Workload.judge(self, raw)
        if ratios:
            out.counts["simulator.pool_speedup"] = statistics.median(ratios)
            out.counts["simulator.pool_speedup.min"] = min(ratios)
            out.counts["simulator.pool_speedup.max"] = max(ratios)
        return out


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (SweepCold, ReplayWarm, TimedLossy, Observed, CliCold)
}
