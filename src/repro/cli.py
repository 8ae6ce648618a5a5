"""Command-line interface: ``lrc-sim`` / ``python -m repro.cli``.

Subcommands::

    run      simulate one app under one protocol at one page size
    sweep    regenerate one app's messages/data figures
    figures  regenerate Figures 5-14 and judge each figure's claims
    table1   validate the per-operation message-cost table
    trace    generate and save an application trace
    stats    sharing analysis of a trace at a page size
    check    simulate and audit release consistency end-to-end
    report   per-barrier-epoch and per-lock traffic decomposition

Global flags: ``-v/--verbose`` (repeatable) and ``-q/--quiet`` control
the ``repro`` logger via :func:`repro.obs.logconfig.logging_setup`.

Building the parser imports nothing of the simulator — each handler
imports what its command needs — so ``-h`` and argument errors answer
at interpreter-start speed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from typing import List, Optional

# Named explicitly (not __name__): ``python -m repro.cli`` runs this
# module as __main__, which would escape the ``repro`` logger hierarchy.
logger = logging.getLogger("repro.cli")

#: ``--app`` / ``--protocol`` choices as plain names: ``sorted(APPS)``
#: and ``all_protocol_names()`` without importing a generator or a
#: protocol class (tests/test_cli.py pins the equality).
APP_NAMES = ("cholesky", "locusroute", "mp3d", "pthor", "water")
PROTOCOL_NAMES = ("LI", "LU", "EI", "EU", "EW", "LH", "HLRC")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", choices=APP_NAMES, default="locusroute")
    parser.add_argument("--n-procs", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload-size multiplier on the app's default problem size",
    )


def _add_network_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network", metavar="SPEC",
        help="run timed over a link model: a preset (ideal, ethernet_1992, "
        "modern_cluster) and/or key=value overrides, e.g. "
        "'ethernet_1992,loss=2%%' or 'latency=200us,bw=100MB/s,loss=1%%'",
    )


def _parse_network(args):
    """The --network spec as a LinkModel, or None when not requested."""
    if getattr(args, "network", None) is None:
        return None
    from repro.network.link import parse_link_spec

    return parse_link_spec(args.network)


def _generate(args):
    """Generate the workload selected by the common CLI arguments."""
    from repro.apps import generate

    t0 = time.perf_counter()
    trace = generate(args.app, n_procs=args.n_procs, seed=args.seed, scale=args.scale)
    logger.info(
        "generated %s: %d events in %.3fs", args.app, len(trace), time.perf_counter() - t0
    )
    return trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrc-sim",
        description="Lazy release consistency protocol simulator (ISCA 1992 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="errors only on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one configuration")
    _add_workload_args(run_p)
    run_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="LI")
    run_p.add_argument("--page-size", type=int, default=4096)
    run_p.add_argument("--trace-file", help="replay a saved trace instead of generating")
    run_p.add_argument(
        "--metrics", action="store_true",
        help="collect telemetry and print the epoch/lock decomposition",
    )
    run_p.add_argument(
        "--trace-out", metavar="PATH",
        help="write the structured protocol event stream as JSON lines",
    )
    _add_network_arg(run_p)

    sweep_p = sub.add_parser("sweep", help="one app across protocols and page sizes")
    _add_workload_args(sweep_p)
    sweep_p.add_argument(
        "--page-sizes", type=int, nargs="+", help="default: the paper's five sizes"
    )
    sweep_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep grid (1 = serial)",
    )
    sweep_p.add_argument(
        "--spans", action="store_true",
        help="span-trace every cell and print the critical-path shape table",
    )
    sweep_p.add_argument(
        "--rollups-csv", metavar="PATH",
        help="with --spans, write per-cell shape rollups as CSV "
        "(timed sweeps add completion_s/retries columns)",
    )
    _add_network_arg(sweep_p)

    figures_p = sub.add_parser(
        "figures", help="regenerate Figures 5-14 and judge their claims (exit 1 if one fails)"
    )
    figures_p.add_argument("--apps", nargs="+", choices=APP_NAMES, default=list(APP_NAMES))
    figures_p.add_argument("--n-procs", type=int, default=16)
    figures_p.add_argument("--seed", type=int, default=0)
    figures_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per figure sweep (1 = serial)",
    )

    sub.add_parser("table1", help="validate per-operation message costs")

    trace_p = sub.add_parser(
        "trace", help="save a trace and/or emit a Perfetto span timeline"
    )
    _add_workload_args(trace_p)
    trace_p.add_argument("--out", help=".trc (text) or .trcb (binary)")
    trace_p.add_argument(
        "--spans", metavar="PATH",
        help="simulate and write the causal span timeline as Chrome "
        "trace-event JSON (open at ui.perfetto.dev)",
    )
    trace_p.add_argument(
        "--protocol", choices=PROTOCOL_NAMES, default="LI",
        help="protocol to span-trace (with --spans)",
    )
    trace_p.add_argument("--page-size", type=int, default=4096)
    trace_p.add_argument(
        "--era", choices=("1992", "modern"), default="1992",
        help="cost-model constants weighting the span timeline",
    )
    _add_network_arg(trace_p)

    stats_p = sub.add_parser("stats", help="sharing analysis of an app trace")
    _add_workload_args(stats_p)
    stats_p.add_argument("--page-size", type=int, default=4096)

    check_p = sub.add_parser("check", help="audit release consistency end-to-end")
    _add_workload_args(check_p)
    check_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="LI")
    check_p.add_argument("--page-size", type=int, default=1024)

    compare_p = sub.add_parser(
        "compare", help="all protocols (incl. the EW/Ivy baseline) + runtime estimate"
    )
    _add_workload_args(compare_p)
    compare_p.add_argument("--page-size", type=int, default=4096)
    compare_p.add_argument(
        "--era",
        choices=("1992", "modern"),
        default="1992",
        help="timing-model constants for the runtime estimate",
    )
    _add_network_arg(compare_p)

    export_p = sub.add_parser("export", help="write all figures + Table 1 as CSV/JSON")
    export_p.add_argument("--out", required=True, help="output directory")
    export_p.add_argument("--apps", nargs="+", choices=APP_NAMES, default=list(APP_NAMES))
    export_p.add_argument("--n-procs", type=int, default=16)
    export_p.add_argument("--seed", type=int, default=0)

    locks_p = sub.add_parser("locks", help="lock-pattern analysis of an app trace")
    _add_workload_args(locks_p)

    mstats_p = sub.add_parser(
        "mstats", help="distribution of Table 1's m/h terms for a lazy protocol"
    )
    _add_workload_args(mstats_p)
    mstats_p.add_argument("--protocol", choices=["LI", "LU", "LH"], default="LI")
    mstats_p.add_argument("--page-size", type=int, default=4096)

    chart_p = sub.add_parser("chart", help="render one app's figures as text charts")
    _add_workload_args(chart_p)
    chart_p.add_argument(
        "--page-sizes", type=int, nargs="+", help="default: the paper's five sizes"
    )

    timeline_p = sub.add_parser("timeline", help="traffic-over-time sparklines")
    _add_workload_args(timeline_p)
    timeline_p.add_argument("--page-size", type=int, default=4096)
    timeline_p.add_argument(
        "--protocols", nargs="+", choices=PROTOCOL_NAMES, default=["LI", "EU"]
    )

    report_p = sub.add_parser(
        "report", help="per-barrier-epoch and per-lock traffic decomposition"
    )
    _add_workload_args(report_p)
    report_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="LI")
    report_p.add_argument("--page-size", type=int, default=4096)
    report_p.add_argument("--trace-file", help="replay a saved trace instead of generating")
    report_p.add_argument(
        "--json", metavar="PATH",
        help="also write {result, metrics, manifest} as JSON (for CI artifacts)",
    )
    report_p.add_argument(
        "--no-spans", action="store_true",
        help="skip span tracing: no span timeline is built and the "
        "critical-path section is omitted",
    )
    report_p.add_argument(
        "--timing", action="store_true",
        help="run timed (default link: ethernet_1992; override with "
        "--network) and print the per-protocol simulated-completion "
        "and stall-decomposition table",
    )
    _add_network_arg(report_p)

    return parser


def _load_or_generate(args):
    if args.trace_file:
        from repro.trace.codec import load_trace

        return load_trace(args.trace_file)
    return _generate(args)


def _cmd_run(args) -> int:
    from repro.obs import JsonlSink, RecordingProbe
    from repro.obs.manifest import execution_line
    from repro.simulator.engine import simulate

    trace = _load_or_generate(args)
    link = _parse_network(args)
    probe = None
    if args.metrics or args.trace_out:
        sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
        probe = RecordingProbe(sinks=sinks)
    overrides = {"link_model": link} if link is not None else {}
    try:
        result = simulate(
            trace, args.protocol, page_size=args.page_size, probe=probe, **overrides
        )
    finally:
        # Sinks flush whatever was recorded even if the replay raises
        # mid-epoch, so a partial event trace stays parseable.
        if probe is not None:
            probe.close()
    print(result.summary_row())
    for category, count in result.category_messages().items():
        data = result.category_data_bytes()[category] / 1024
        print(f"  {category:<8} messages={count:<10} data={data:.1f}kB")
    if args.metrics:
        from repro.analysis.epoch_report import format_epoch_table

        print()
        print(format_epoch_table(result.metrics))
    if result.timing is not None:
        from repro.analysis.timing_report import format_timing_detail

        print()
        print(format_timing_detail(result.timing))
    if args.trace_out:
        print(f"event trace -> {args.trace_out}")
    line = execution_line(result.manifest)
    if line:
        print(line)
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.report import format_figure_table
    from repro.config import SimConfig
    from repro.experiments.figures import FIGURES, run_figure
    from repro.obs.manifest import execution_paths_line

    if args.rollups_csv and not args.spans:
        logger.error("--rollups-csv requires --spans")
        return 2
    trace = _generate(args)
    link = _parse_network(args)
    config = None
    if link is not None:
        config = SimConfig(n_procs=trace.n_procs, link_model=link)
    sweep = run_figure(
        args.app, page_sizes=args.page_sizes, trace=trace, jobs=args.jobs,
        spans=args.spans, config=config,
    )
    spec = FIGURES[args.app]
    print(format_figure_table(sweep, f"Figure {spec.messages_figure}", "messages"))
    print()
    print(format_figure_table(sweep, f"Figure {spec.data_figure}", "data"))
    if args.spans:
        print()
        print(sweep.format_shape_table())
    if args.rollups_csv:
        from repro.experiments.export import export_sweep_rollups_csv

        export_sweep_rollups_csv(sweep, args.rollups_csv)
        print(f"shape rollups -> {args.rollups_csv}")
    print(execution_paths_line(sweep.execution_paths()))
    return 0


def _cmd_figures(args) -> int:
    from repro.analysis.report import format_figure_table
    from repro.experiments.claims import claims_for
    from repro.experiments.figures import FIGURES, run_figure

    verdicts = []
    for app in args.apps:
        sweep = run_figure(app, n_procs=args.n_procs, seed=args.seed, jobs=args.jobs)
        spec = FIGURES[app]
        print(format_figure_table(sweep, f"Figure {spec.messages_figure}", "messages"))
        print()
        print(format_figure_table(sweep, f"Figure {spec.data_figure}", "data"))
        print()
        verdicts += [(claim.id, claim.predicate(sweep)) for claim in claims_for(f"figure:{app}")]
    for claim_id, holds in verdicts:
        print(f"claim {claim_id}: {'holds' if holds else 'FAILS'}")
    return 0 if all(holds for _id, holds in verdicts) else 1


def _cmd_table1(args) -> int:
    from repro.experiments.table1 import run_table1

    rows = run_table1()
    failures = 0
    print(f"{'':<5}{'proto':<6}{'operation':<10}{'params':<22}{'sim':>6}{'model':>7}")
    for row in rows:
        mark = "ok" if row.ok else "FAIL"
        failures += 0 if row.ok else 1
        print(
            f"{mark:<5}{row.protocol:<6}{row.operation:<10}{row.params:<22}"
            f"{row.simulated:>6}{row.analytical:>7}"
        )
    print(f"{len(rows) - failures}/{len(rows)} cells match the analytical model")
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    if not args.out and not args.spans:
        logger.error("trace: nothing to do; pass --out and/or --spans")
        return 2
    trace = _generate(args)
    if args.out:
        from repro.trace.codec import save_trace

        save_trace(trace, args.out)
        print(f"saved {trace!r} -> {args.out}")
    if args.spans:
        from repro.analysis.critical_path import analyze_critical_path
        from repro.obs.manifest import execution_line
        from repro.obs.spans import SpanCosts, build_span_timeline, to_chrome_trace

        link = _parse_network(args)
        # A timed run weights the timeline with the link's measured
        # delays; SpanCosts defaults from the link inside the builder.
        costs = None
        if link is None:
            costs = (
                SpanCosts.ethernet_1992() if args.era == "1992"
                else SpanCosts.modern_cluster()
            )
        result, timeline = build_span_timeline(
            trace, args.protocol, page_size=args.page_size, costs=costs,
            link_model=link,
        )
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(to_chrome_trace(timeline), fh, separators=(",", ":"))
            fh.write("\n")
        report = analyze_critical_path(timeline)
        print(
            f"span timeline -> {args.spans} ({len(timeline.spans)} spans, "
            f"{len(timeline.flows)} flow edges, "
            f"critical path {report.makespan * 1e3:.3f} ms)"
        )
        line = execution_line(result.manifest)
        if line:
            print(line)
    return 0


def _cmd_stats(args) -> int:
    from repro.analysis.sharing import analyze_sharing

    trace = _generate(args)
    print(analyze_sharing(trace, args.page_size).format())
    return 0


def _cmd_check(args) -> int:
    from repro.analysis.checker import check_protocol

    trace = _generate(args)
    report = check_protocol(trace, args.protocol, page_size=args.page_size)
    print(
        f"{args.app} under {args.protocol} @ {args.page_size}B: "
        f"{report.reads_checked} reads verified, {report.reads_racy} racy reads skipped"
    )
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.timing_report import estimate_runtime
    from repro.network.link import LinkModel
    from repro.simulator.engine import simulate

    trace = _generate(args)
    link = _parse_network(args)
    # The estimate's wire constants come from the --network link when
    # one is given (CPU constants then stay the 1992 preset's), else
    # from the --era preset.
    preset = "modern_cluster" if link is None and args.era == "modern" else "ethernet_1992"
    estimate_link = link if link is not None else LinkModel.from_preset(preset)
    overrides = {"link_model": link} if link is not None else {}
    print(f"{args.app}, {args.n_procs} processors, {args.page_size}-byte pages:")
    for protocol in PROTOCOL_NAMES:
        result = simulate(trace, protocol, page_size=args.page_size, **overrides)
        estimate = estimate_runtime(result, estimate_link, preset)
        line = (
            f"  {protocol:<3} msgs={result.messages:<9} data={result.data_kbytes:>9.1f}kB "
            f"misses={result.misses:<7} est={estimate.total_seconds:>8.3f}s"
        )
        if result.timing is not None:
            # Simulated completion accounts for concurrency and link
            # contention; the estimate is a serial lower bound.
            line += (
                f" sim={result.timing['completion_s']:>8.3f}s"
                f" retries={result.timing['retries']}"
            )
        print(line)
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.export import export_all

    manifest = export_all(args.out, apps=args.apps, n_procs=args.n_procs, seed=args.seed)
    print(f"wrote {len(manifest['files'])} files to {args.out}")
    return 0


def _cmd_locks(args) -> int:
    from repro.analysis.locks import analyze_locks

    trace = _generate(args)
    print(analyze_locks(trace).format())
    return 0


def _cmd_mstats(args) -> int:
    from repro.analysis.protocol_stats import instrumented_run

    trace = _generate(args)
    print(instrumented_run(trace, args.protocol, page_size=args.page_size).format())
    return 0


def _cmd_chart(args) -> int:
    from repro.analysis.charts import render_sweep_chart
    from repro.experiments.figures import run_figure

    trace = _generate(args)
    sweep = run_figure(args.app, page_sizes=args.page_sizes, trace=trace)
    print(render_sweep_chart(sweep, "messages"))
    print()
    print(render_sweep_chart(sweep, "data"))
    return 0


def _cmd_timeline(args) -> int:
    from repro.analysis.timeline import message_timeline

    trace = _generate(args)
    print(f"{args.app}: message traffic over the execution ({len(trace)} events)")
    for protocol in args.protocols:
        timeline = message_timeline(trace, protocol, page_size=args.page_size)
        print("  " + timeline.format())
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.epoch_report import (
        format_report,
        run_with_metrics,
        run_with_spans,
    )

    trace = _load_or_generate(args)
    link = _parse_network(args)
    if args.timing and link is None:
        from repro.network.link import LinkModel

        link = LinkModel.ethernet_1992()
    timeline = None
    if args.no_spans:
        result = run_with_metrics(
            trace, args.protocol, page_size=args.page_size, link=link
        )
    else:
        from repro.analysis.critical_path import analyze_critical_path

        result, timeline = run_with_spans(
            trace, args.protocol, page_size=args.page_size, link=link
        )
        result.spans = analyze_critical_path(timeline).rollups()
    print(format_report(result, timeline=timeline))
    if args.timing:
        from repro.analysis.timing_report import compare_timed, format_timing_table

        # The reported protocol's timed run is deterministic for the
        # (trace, link) pair, so reuse it; only the others rerun.
        others = compare_timed(
            trace,
            link,
            [p for p in PROTOCOL_NAMES if p != args.protocol],
            page_size=args.page_size,
        )
        ordered = {
            p: (result if p == args.protocol else others[p])
            for p in PROTOCOL_NAMES
        }
        print()
        print(format_timing_table(ordered))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report json -> {args.json}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "table1": _cmd_table1,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "compare": _cmd_compare,
    "export": _cmd_export,
    "locks": _cmd_locks,
    "mstats": _cmd_mstats,
    "chart": _cmd_chart,
    "timeline": _cmd_timeline,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs.logconfig import logging_setup

    from repro.common.errors import ConfigError, TraceError

    logging_setup(-1 if args.quiet else args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, TraceError, OSError) as exc:
        # What the user typed, not a bug: one line, no traceback.
        # (ProtocolError / SimulatorError mean a bug and keep theirs.)
        print(f"lrc-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
