#!/usr/bin/env python
"""Measure core simulator performance and write (or check) BENCH_core.json.

Six measurements:

* protocol simulation events/second over the water trace used by
  ``benchmarks/bench_simulator_throughput.py`` (n_procs=8, 96 molecules,
  2 timesteps, 2048-byte pages), best of N runs per protocol,
* batched kernels (the default) vs the per-event reference
  interpreters on LI/LU (access-run kernels) and EI/EU/EW (replay
  tapes), pinning the kernel speedups,
* wall-clock for the full 4x5 sweep grid over that trace, serial vs
  ``jobs=4``,
* trace *generation* events/second on the paper's default 16-processor
  water workload (the scheduler fast loop), against the recorded
  pre-columnar baseline,
* ``.trcb`` load time on a >=100k-event trace, columnar v2 format vs
  the legacy per-event format, and
* telemetry overhead: LI/LU with the telemetry layer disabled (the
  default null recorder) vs a full ``RecordingProbe`` — the *disabled*
  overhead is the acceptance bar (< 3% vs plain throughput).

Timed mode is measured by lrcbench's ``timed_lossy`` workload
(``benchmarks/lrcbench``): a best-of loop over repeated timed runs
here would only time send-log cache hits.

The JSON lands at the repo root so successive PRs accumulate a
performance trajectory — re-run ``scripts/bench.sh`` after simulator
changes and compare against the committed baseline.

``--check`` runs only the throughput measurement and compares it against
the committed ``BENCH_core.json`` instead of rewriting it: any protocol
more than 20% below the committed number is a regression and the script
exits non-zero. ``scripts/bench.sh --check`` wires this into the bench
entry point.

The water trace itself is memoized on disk under ``.trace_cache/`` (see
:mod:`repro.trace.cache`), so repeated bench runs skip generation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import gc
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import water  # noqa: E402
from repro.config import _default_batched_kernels  # noqa: E402
from repro.obs.manifest import git_sha  # noqa: E402
from repro.obs.probe import RecordingProbe  # noqa: E402
from repro.obs.sinks import ColumnarSink  # noqa: E402
from repro.simulator.engine import simulate  # noqa: E402
from repro.simulator.sweep import run_sweep  # noqa: E402
from repro.trace.cache import cached_app_trace  # noqa: E402
from repro.trace.codec import dump_binary, dump_binary_legacy, load_binary  # noqa: E402

PROTOCOLS = ("LI", "LU", "EI", "EU")
PAGE_SIZE = 2048
ROUNDS = 5
BENCH_PATH = REPO_ROOT / "BENCH_core.json"
TRACE_CACHE = REPO_ROOT / ".trace_cache"
#: A fresh number below committed * (1 - tolerance) fails --check.
REGRESSION_TOLERANCE = 0.20

WORKLOAD = dict(n_procs=8, seed=0, n_molecules=96, timesteps=2)
#: Paper-default water run timed by the generation bench.
GENERATION_WORKLOAD = dict(n_procs=16, seed=0)
#: Best-of-N generation throughput measured on this host immediately
#: before the columnar trace pipeline landed (boxed Events, per-step
#: runnable rebuild). The acceptance bar for the fast loop is 3x this.
PRE_COLUMNAR_EVENTS_PER_S = 120_859
#: >=100k-event workload for the .trcb load bench (water scale 3.0).
LOAD_WORKLOAD = dict(n_procs=16, seed=0, scale=3.0)
#: LI/LU throughput committed immediately before the telemetry layer
#: landed (same host and workload). The null-recorder design requires
#: telemetry-disabled throughput to stay within 3% of these.
PRE_TELEMETRY_EVENTS_PER_S = {"LI": 191_398, "LU": 179_506}
NULL_OVERHEAD_LIMIT_PCT = 3.0
#: Metrics-on recording cost bar: attaching a sink-less RecordingProbe
#: (columnar metrics staging, drained once per barrier epoch) must stay
#: under this fraction of the probe-off throughput. Raised from 15% when
#: the LazyTape landed: the probe-off baseline got ~1.8x faster, so the
#: same staging work is a larger *fraction* even though the absolute
#: recording cost per event fell (~0.18 -> ~0.15 us/event on LI).
RECORDING_OVERHEAD_LIMIT_PCT = 20.0
#: Protocols pinned by the batched-vs-reference section. The eager tapes
#: (EI/EU/EW) ride next to the lazy skeleton kernels (LI/LU).
BATCHED_PROTOCOLS = ("LI", "LU", "EI", "EU", "EW")
#: Absolute batched-throughput floors (events/s) on the CI baseline
#: host, established by the LazyTape sync replay. Unlike the relative
#: regression tolerance these do not drift with the committed numbers:
#: --check fails if the lazy family falls back under 1M events/s.
BATCHED_FLOOR_EVENTS_PER_S = {"LI": 1_000_000, "LU": 1_000_000}


def best_of(fn, rounds: int = ROUNDS) -> float:
    """Best wall time over ``rounds``, with collector hygiene.

    Later bench sections otherwise time the garbage collector, not the
    code: the process accumulates long-lived objects and gen-2 passes
    land inside the timed region (measured ~8% slowdown on the same
    code path late in a run). Collect before, disable during.
    """
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def measure_throughput(trace) -> dict:
    n_events = len(trace)
    throughput = {}
    for protocol in PROTOCOLS:
        elapsed = best_of(lambda: simulate(trace, protocol, page_size=PAGE_SIZE))
        throughput[protocol] = round(n_events / elapsed)
        print(f"{protocol}: {throughput[protocol]:,} events/s")
    return throughput


def measure_batched(trace) -> dict:
    """Batched access-run kernels vs the per-event reference interpreters.

    ``use_batched_kernels=True`` is the shipped default, so the plain
    throughput section above already measures the batched path; this
    section pins the per-event reference rate next to it so the kernel
    speedup stays visible in the committed report.
    """
    n_events = len(trace)
    out = {}
    for protocol in BATCHED_PROTOCOLS:
        batched_s = best_of(lambda: simulate(trace, protocol, page_size=PAGE_SIZE))
        reference_s = best_of(
            lambda: simulate(
                trace, protocol, page_size=PAGE_SIZE, use_batched_kernels=False
            )
        )
        batched = round(n_events / batched_s)
        reference = round(n_events / reference_s)
        speedup = batched / reference
        print(
            f"batched {protocol}: {batched:,} events/s vs per-event "
            f"{reference:,} events/s ({speedup:.2f}x)"
        )
        out[protocol] = {
            "batched_events_per_s": batched,
            "per_event_events_per_s": reference,
            "speedup": round(speedup, 2),
        }
    return out


def measure_generation() -> dict:
    """Trace-generation throughput of the scheduler fast loop."""
    trace = water.generate(**GENERATION_WORKLOAD)
    n_events = len(trace)
    elapsed = best_of(lambda: water.generate(**GENERATION_WORKLOAD))
    events_per_s = round(n_events / elapsed)
    speedup = events_per_s / PRE_COLUMNAR_EVENTS_PER_S
    print(
        f"generation: {n_events:,} events at {events_per_s:,} events/s "
        f"({speedup:.2f}x pre-columnar baseline)"
    )
    return {
        "app": "water",
        "n_procs": GENERATION_WORKLOAD["n_procs"],
        "seed": GENERATION_WORKLOAD["seed"],
        "events": n_events,
        "events_per_s": events_per_s,
        "pre_columnar_events_per_s": PRE_COLUMNAR_EVENTS_PER_S,
        "speedup_vs_pre_columnar": round(speedup, 2),
    }


def measure_trcb_load() -> dict:
    """Columnar vs legacy .trcb load time on a >=100k-event trace."""
    trace = cached_app_trace("water", cache_dir=TRACE_CACHE, **LOAD_WORKLOAD)
    n_events = len(trace)
    v2_buf = io.BytesIO()
    dump_binary(trace, v2_buf)
    v2_bytes = v2_buf.getvalue()
    legacy_buf = io.BytesIO()
    dump_binary_legacy(trace, legacy_buf)
    legacy_bytes = legacy_buf.getvalue()
    columnar_s = best_of(lambda: load_binary(io.BytesIO(v2_bytes)))
    legacy_s = best_of(lambda: load_binary(io.BytesIO(legacy_bytes)), rounds=2)
    speedup = legacy_s / columnar_s
    print(
        f"trcb load ({n_events:,} events): columnar {columnar_s * 1000:.1f}ms "
        f"vs legacy {legacy_s * 1000:.1f}ms ({speedup:.0f}x)"
    )
    return {
        "app": "water",
        "n_procs": LOAD_WORKLOAD["n_procs"],
        "scale": LOAD_WORKLOAD["scale"],
        "events": n_events,
        "columnar_ms": round(columnar_s * 1000, 2),
        "legacy_ms": round(legacy_s * 1000, 2),
        "speedup_vs_legacy": round(speedup, 1),
        "columnar_file_bytes": len(v2_bytes),
        "legacy_file_bytes": len(legacy_bytes),
    }


def measure_telemetry(trace) -> dict:
    """Instrumentation on/off throughput on the lazy protocols.

    "off" is the shipped default (the null recorder behind the
    ``self._obs`` guards); "on" attaches a full ``RecordingProbe`` with
    a metrics registry. The recorded ``null_overhead_pct`` — off vs the
    pre-telemetry committed throughput — is what ``--check`` gates on.
    """
    n_events = len(trace)
    out = {
        "null_overhead_limit_pct": NULL_OVERHEAD_LIMIT_PCT,
        "recording_overhead_limit_pct": RECORDING_OVERHEAD_LIMIT_PCT,
        "protocols": {},
    }
    # Host noise on a shared single-CPU box comes in seconds-long
    # bursts of ~10% amplitude — far above the 3% overhead bar — so
    # every variant takes the best of many short rounds, and the
    # variants are *interleaved* round-by-round: measuring off and on
    # in separate sequential blocks lets a noise burst land on one
    # block only and fabricate (or mask) tens of percent of apparent
    # recording cost. Interleaving pins the comparison to the same
    # quiet windows.
    for protocol in sorted(PRE_TELEMETRY_EVENTS_PER_S):
        off_s = on_s = sink_s = float("inf")
        for _ in range(3 * ROUNDS):
            off_s = min(
                off_s,
                best_of(
                    lambda: simulate(trace, protocol, page_size=PAGE_SIZE),
                    rounds=1,
                ),
            )
            on_s = min(
                on_s,
                best_of(
                    lambda: simulate(
                        trace, protocol, page_size=PAGE_SIZE, probe=RecordingProbe()
                    ),
                    rounds=1,
                ),
            )
            sink_s = min(
                sink_s,
                best_of(
                    lambda: simulate(
                        trace,
                        protocol,
                        page_size=PAGE_SIZE,
                        probe=RecordingProbe(sinks=[ColumnarSink()]),
                    ),
                    rounds=1,
                ),
            )
        off_rate = round(n_events / off_s)
        on_rate = round(n_events / on_s)
        sink_rate = round(n_events / sink_s)
        pre = PRE_TELEMETRY_EVENTS_PER_S[protocol]
        null_pct = (pre - off_rate) / pre * 100.0
        recording_pct = (off_rate - on_rate) / off_rate * 100.0
        sink_pct = (off_rate - sink_rate) / off_rate * 100.0
        print(
            f"telemetry {protocol}: off {off_rate:,} events/s "
            f"({null_pct:+.1f}% vs pre-telemetry {pre:,}), "
            f"on {on_rate:,} events/s ({recording_pct:+.1f}% recording cost), "
            f"on+columnar-sink {sink_rate:,} events/s "
            f"({sink_pct:+.1f}% recording cost)"
        )
        out["protocols"][protocol] = {
            "off_events_per_s": off_rate,
            "on_events_per_s": on_rate,
            "on_columnar_sink_events_per_s": sink_rate,
            "pre_telemetry_events_per_s": pre,
            "null_overhead_pct": round(null_pct, 2),
            "recording_overhead_pct": round(recording_pct, 2),
            "columnar_sink_overhead_pct": round(sink_pct, 2),
        }
    return out


def profile_protocols(trace, top: int) -> Path:
    """cProfile each protocol's simulation; write top-``top`` by tottime.

    Keeps ROADMAP's "top profile entries" claims reproducible: the
    report lands next to BENCH_core.json so the hot functions of record
    can be re-derived on any host with one flag. Each protocol gets one
    unprofiled warm-up run first so one-time work (trace compilation,
    plan and tape construction, disk caches) doesn't drown the steady
    state the throughput numbers measure.
    """
    import cProfile
    import pstats

    out_path = BENCH_PATH.with_name("BENCH_profile.txt")
    buf = io.StringIO()
    buf.write(
        "# Per-protocol cProfile of simulate() on the BENCH_core water "
        f"workload (top {top} by tottime; one warm-up run excluded).\n"
        f"# Regenerate: scripts/bench_core.py --profile --profile-top {top}\n"
    )
    for protocol in BATCHED_PROTOCOLS:
        simulate(trace, protocol, page_size=PAGE_SIZE)
        profiler = cProfile.Profile()
        profiler.enable()
        simulate(trace, protocol, page_size=PAGE_SIZE)
        profiler.disable()
        buf.write(f"\n== {protocol} ==\n")
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("tottime").print_stats(top)
        print(f"profiled {protocol}")
    out_path.write_text(buf.getvalue())
    print(f"wrote {out_path}")
    return out_path


def check(trace) -> int:
    """Compare fresh throughput against the committed baseline."""
    if not BENCH_PATH.exists():
        print(f"check: no committed baseline at {BENCH_PATH}", file=sys.stderr)
        return 2
    bench = json.loads(BENCH_PATH.read_text())
    committed = bench["throughput_events_per_s"]
    # Throughput baselines are host-relative: a different core count is
    # worth a heads-up (the absolute numbers may not be comparable) but
    # is not by itself a failure.
    committed_cpus = bench.get("host", {}).get("cpu_count")
    if committed_cpus is not None and committed_cpus != os.cpu_count():
        print(
            f"check: warning: host cpu_count {os.cpu_count()} differs from "
            f"committed baseline's {committed_cpus}; throughput comparisons "
            "may not be apples-to-apples"
        )
    fresh = measure_throughput(trace)
    failures = []
    for protocol, baseline in committed.items():
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        now = fresh.get(protocol)
        if now is None:
            continue
        ratio = now / baseline
        status = "ok" if now >= floor else "REGRESSION"
        print(f"check {protocol}: {now:,} vs committed {baseline:,} ({ratio:.2f}x) {status}")
        if now < floor:
            failures.append(protocol)
    # Batched-kernel throughput: the default path for every certified
    # protocol. LI/LU/EI/EU are already covered by the throughput check
    # above (batched is the default there); EW only appears here, so it
    # gets a fresh measurement of its own.
    n_events = len(trace)
    for protocol, entry in bench.get("batched_kernels", {}).items():
        baseline = entry["batched_events_per_s"]
        now = fresh.get(protocol)
        if now is None:
            elapsed = best_of(lambda: simulate(trace, protocol, page_size=PAGE_SIZE))
            now = round(n_events / elapsed)
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        ratio = now / baseline
        status = "ok" if now >= floor else "REGRESSION"
        print(
            f"check batched {protocol}: {now:,} vs committed {baseline:,} "
            f"({ratio:.2f}x) {status}"
        )
        if now < floor:
            failures.append(f"{protocol} batched")
        absolute = BATCHED_FLOOR_EVENTS_PER_S.get(protocol)
        if absolute is not None:
            status = "ok" if now >= absolute else "UNDER FLOOR"
            print(
                f"check batched {protocol}: {now:,} vs absolute floor "
                f"{absolute:,} events/s {status}"
            )
            if now < absolute:
                failures.append(f"{protocol} batched floor")
    # The telemetry layer's contract: with no probe attached (the
    # default above), the null-recorder guards cost < 3% against the
    # pre-telemetry throughput recorded in the committed bench, and a
    # metrics-only probe (columnar staging) costs < 15% of the probe-off
    # rate.
    for protocol, entry in bench.get("telemetry", {}).get("protocols", {}).items():
        recorded = entry["null_overhead_pct"]
        status = "ok" if recorded < NULL_OVERHEAD_LIMIT_PCT else "OVER LIMIT"
        print(
            f"check telemetry {protocol}: recorded null overhead "
            f"{recorded:+.1f}% (limit {NULL_OVERHEAD_LIMIT_PCT:.0f}%) {status}"
        )
        if recorded >= NULL_OVERHEAD_LIMIT_PCT:
            failures.append(f"{protocol} telemetry")
        recording = entry.get("recording_overhead_pct")
        if recording is not None:
            status = "ok" if recording < RECORDING_OVERHEAD_LIMIT_PCT else "OVER LIMIT"
            print(
                f"check telemetry {protocol}: recorded metrics-on recording cost "
                f"{recording:+.1f}% (limit {RECORDING_OVERHEAD_LIMIT_PCT:.0f}%) {status}"
            )
            if recording >= RECORDING_OVERHEAD_LIMIT_PCT:
                failures.append(f"{protocol} recording")
    if failures:
        print(
            f"check: performance outside tolerance on {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("check: all protocols within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh throughput against the committed BENCH_core.json "
        "and exit non-zero on >20%% regression (does not rewrite the file)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each protocol's simulation and write the top-N "
        "report (by tottime) next to BENCH_core.json, then exit",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="rows per protocol in the --profile report (default 25)",
    )
    args = parser.parse_args(argv)

    trace = cached_app_trace("water", cache_dir=TRACE_CACHE, **WORKLOAD)
    if args.profile:
        profile_protocols(trace, args.profile_top)
        return 0
    if args.check:
        return check(trace)

    n_events = len(trace)
    throughput = measure_throughput(trace)
    # Telemetry overhead is measured right after the throughput section
    # (clean heap): the load bench below churns through a 100k+-event
    # trace whose fragmentation would pollute the comparison against
    # the pre-telemetry baseline.
    telemetry = measure_telemetry(trace)
    batched = measure_batched(trace)

    serial_s = best_of(lambda: run_sweep(trace), rounds=2)
    jobs4_s = best_of(lambda: run_sweep(trace, jobs=4), rounds=2)
    print(f"sweep serial={serial_s:.2f}s jobs=4={jobs4_s:.2f}s")

    generation = measure_generation()
    trcb_load = measure_trcb_load()

    report = {
        "generated": time.strftime("%Y-%m-%d"),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(REPO_ROOT),
            "use_batched_kernels": _default_batched_kernels(),
        },
        "workload": {
            "app": "water",
            "n_procs": WORKLOAD["n_procs"],
            "n_molecules": WORKLOAD["n_molecules"],
            "timesteps": WORKLOAD["timesteps"],
            "events": n_events,
            "page_size": PAGE_SIZE,
        },
        "throughput_events_per_s": throughput,
        "sweep": {
            "grid_cells": 20,
            "serial_s": round(serial_s, 3),
            "jobs4_s": round(jobs4_s, 3),
            "speedup_jobs4": round(serial_s / jobs4_s, 2),
            "note": (
                "speedup tracks available CPUs; on a single-CPU host "
                "jobs=4 only adds pool overhead (results stay identical)"
            ),
        },
        "batched_kernels": batched,
        "generation": generation,
        "trcb_load": trcb_load,
        "telemetry": telemetry,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
