"""Orchestrator and command line of lrcbench.

Starts one worker interpreter per workload, schedules their passes,
folds the replies into named metrics, prints them, and records them.

Two ways to run:

* ``python -m benchmarks.lrcbench`` — every workload, ``--passes``
  untraced passes each (order alternating between rounds), the first
  ``spec.TRACED_PASSES`` of them paired with a traced pass; prints every
  end-to-end and per-layer metric, appends one line to
  ``results/history.jsonl``.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload, passes repeated for ``S`` seconds; the last stdout line is
  the JSON object the benchmark driver reads (end-to-end metrics with
  ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.manifest import git_sha

from benchmarks.lrcbench import spec
from benchmarks.lrcbench.compare import compare_files


class WorkerDied(RuntimeError):
    pass


class WorkerProcess:
    """A worker interpreter and the line protocol to it."""

    def __init__(self, workload: str, seed: int, setup_reps: int, reference: str):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE_CACHE"}
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join((str(spec.ROOT), str(spec.ROOT / "src")))
        self.workload = workload
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.lrcbench", "--serve", workload,
                "--seed", str(seed), "--setup-reps", str(setup_reps),
                "--reference", reference,
            ],
            cwd=str(spec.ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.ready = self._read()

    def _read(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker for {self.workload} exited without replying")
        return json.loads(line)

    def request(self, command: str) -> Dict[str, object]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the worker and wait for it, however the run went."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Run:
    """Everything one workload reported in one benchmark run."""

    name: str
    setup_s: List[float]
    input_events: int
    wall_s: List[float] = field(default_factory=list)
    events_per_s: List[float] = field(default_factory=list)
    events_per_pass: int = 0
    attempted: int = 0
    #: Failed items summed over the passes, like ``attempted``: a cell
    #: that fails in every pass counts every time.
    failed: int = 0
    #: Label -> why, for printing; the latest pass's message wins.
    failures: Dict[str, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    layers: Optional[Dict[str, float]] = None
    cells: Dict[str, List[str]] = field(default_factory=dict)
    spans: Optional[List[dict]] = None

    def absorb(self, kind: str, reply: Dict[str, object]) -> None:
        self.attempted += reply["attempted"]
        self.failed += len(reply["failures"])
        self.failures.update(reply["failures"])
        if kind == "pass":
            self.wall_s.append(reply["wall_s"])
            self.events_per_s.append(reply["events"] / reply["wall_s"])
            self.events_per_pass = reply["events"]

    def samples(self) -> Dict[str, List[float]]:
        """End-to-end metric -> its samples, by ``BENCHMARK.json`` name.

        ``wall_s`` is reported too but not declared there: seconds per
        pass follow the seed's input size (+-10 % across seeds), which
        ``events_per_s`` divides out.
        """
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "events_per_s": self.events_per_s,
            "peak_rss_mb": [self.peak_rss_mb],
        }


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count (quartiles collapse below n=2)."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- scheduling ----------------------------------------------------------------


def run_pair(worker: WorkerProcess, run: Run, traced_first: bool) -> None:
    """One untraced and one traced pass, neighbours in time.

    The worker pairs them up for ``trace_overhead_frac``; callers flip
    ``traced_first`` from pair to pair so neither kind always runs in
    the other's wake.
    """
    for kind in ("traced", "pass") if traced_first else ("pass", "traced"):
        run.absorb(kind, worker.request(kind))


def run_for_seconds(worker: WorkerProcess, run: Run, seconds: float, traced: bool) -> None:
    """Repeat passes (traced: untraced/traced pairs) for ``seconds``."""
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        if traced:
            run_pair(worker, run, traced_first=done % 2 == 1)
        else:
            run.absorb("pass", worker.request("pass"))
        done += 1


def run_rounds(
    workers: Dict[str, WorkerProcess], runs: Dict[str, Run], passes: Dict[str, int], traced: int
) -> None:
    """``passes`` untraced passes each, workload order flipped every round,
    so no workload always runs in another's wake; in the first ``traced``
    rounds every pass is one of an untraced/traced pair."""
    names = list(workers)
    for index in range(max(passes.values())):
        for name in names if index % 2 == 0 else reversed(names):
            if index >= passes[name]:
                continue
            if index < traced:
                run_pair(workers[name], runs[name], traced_first=index % 2 == 1)
            else:
                runs[name].absorb("pass", workers[name].request("pass"))


def finish(worker: WorkerProcess, run: Run) -> None:
    reply = worker.request("finish")
    run.absorb("finish", reply)
    run.peak_rss_mb = reply["peak_rss_mb"]
    run.cells = reply["cells"]
    run.layers = reply.get("layers")
    run.spans = reply.get("spans")


# -- reporting -----------------------------------------------------------------


def print_run(run: Run, end_to_end: Dict[str, dict], per_layer: Dict[str, dict]) -> None:
    print(f"== {run.name} ==")
    print(
        f"  input: {run.input_events:,} trace events (host-independent); "
        f"{run.events_per_pass:,} cell-events replayed per pass"
    )
    for name, values in run.samples().items():
        if not values:
            continue
        stats = summarize(values)
        declared = end_to_end.get(name)
        print(
            f"  {name:<16}{stats['median']:>14.4f} {declared['unit'] if declared else 's':<8}"
            f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}  "
            + ("(host)" if declared else "(host; not gated: grows with the seed's input size)")
        )
        spread = (stats["q3"] - stats["q1"]) / stats["median"]
        if declared and spread > declared["bound"]:
            print(
                f"  warning: {name} spread {spread:.1%} exceeds its bound "
                f"{declared['bound']:.0%}; treat comparisons as unresolved",
                file=sys.stderr,
            )
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_frac':<16}{frac:>14.4f} {'':<8}{run.failed} of {run.attempted} cells/commands/checks")
    for label, why in sorted(run.failures.items())[:20]:
        print(f"  FAILED {label}: {why}")
    if run.layers is not None:
        print("  per layer (traced pass; _s = host self-seconds, counts are simulated and exact):")
        for name, declared in per_layer.items():
            if name in run.layers:
                line = f"    {name:<34}{run.layers[name]:>16.6f} {declared['unit']}"
                if name + ".min" in run.layers:
                    # A median over a few samples: show what it is the median of.
                    low, high = run.layers[name + ".min"], run.layers[name + ".max"]
                    line += f"  range {low:.4f} .. {high:.4f}"
                print(line)
        print_trace_overhead(run.layers)


def print_trace_overhead(layers: Dict[str, float]) -> None:
    """Say whether the traced passes ran like the untraced ones.

    A difference beyond the untraced passes' own spread is resolved,
    with either sign: the per-layer budget then describes a pass that is
    not the one the end-to-end numbers timed.
    """
    overhead = layers.get("trace_overhead_frac")
    spread = layers.get("trace_overhead.pass_spread")
    if overhead is None:
        return
    print(
        f"    trace overhead {overhead:+.1%} over {layers['trace_overhead.pairs']:.0f} "
        "neighbouring traced/untraced pair(s); untraced pass-to-pass spread "
        + (f"{spread:.1%}" if spread is not None else "unknown (one pass)")
    )
    if spread is not None and abs(overhead) > spread:
        print(
            f"  warning: traced passes differ from untraced ones by {overhead:+.1%}, more than "
            f"the {spread:.1%} pass-to-pass spread; the per-layer seconds describe the traced "
            "pass, not the end-to-end one",
            file=sys.stderr,
        )


def contract_line(run: Run, traced: bool, end_to_end, per_layer) -> str:
    """The JSON object the benchmark driver reads from the last line.

    The driver wants every per-layer metric from every workload, as a
    number. A layer the workload never enters reads 0 there (no seconds
    spent, no events counted); :func:`main` names those metrics on the
    line before, and ``--out``, the history and the printed table carry
    measured metrics only.
    """
    if traced:
        layers = run.layers or {}
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": declared["unit"]}
            for name, declared in per_layer.items()
        }
    else:
        metrics = {
            name: {"value": summarize(run.samples()[name])["median"], "unit": declared["unit"]}
            for name, declared in end_to_end.items()
        }
    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": metrics,
        }
    )


def host_record(seed: int) -> Dict[str, object]:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": git_sha(spec.ROOT),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "scale": spec.SCALE,
    }


def results_record(runs: Dict[str, Run], seed: int) -> Dict[str, object]:
    """The diff-able form of a run: what ``--out`` and the history hold."""
    record = host_record(seed)
    record["workloads"] = {
        name: {
            "end_to_end": {
                metric: {**summarize(values), "values": values}
                for metric, values in run.samples().items()
                if values
            },
            "attempted": run.attempted,
            "failed": run.failed,
            "ledger_digest": spec.digest(run.cells),
            "input_events": run.input_events,
            "events_per_pass": run.events_per_pass,
            "per_layer": run.layers or {},
        }
        for name, run in runs.items()
    }
    return record


def write_reference(runs: Dict[str, Run], seed: int, path: str) -> None:
    counting: Dict[str, str] = {}
    extras: Dict[str, str] = {}
    for run in runs.values():
        for key, (cell_counting, cell_extras) in run.cells.items():
            if counting.setdefault(spec.base_key(key), cell_counting) != cell_counting:
                raise SystemExit(f"refusing to write a reference: {key} disagrees across paths")
            if cell_extras:
                extras[key] = cell_extras
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": seed, "scale": spec.SCALE, "git_sha": git_sha(spec.ROOT),
                "counting": dict(sorted(counting.items())),
                "extras": dict(sorted(extras.items())),
            },
            fh, indent=0, sort_keys=False,
        )
        fh.write("\n")
    print(f"reference ledgers -> {path} ({len(counting)} counting, {len(extras)} extras)")


def write_traces(runs: Dict[str, Run]) -> None:
    spec.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    for name, run in runs.items():
        if run.spans is not None:
            path = spec.RESULTS_DIR / f"trace-{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "spans": run.spans}, fh, separators=(",", ":"))
                fh.write("\n")


# -- entry ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrcbench", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=spec.WORKLOADS, metavar="NAME",
        help=f"run only this workload (repeatable); one of {', '.join(spec.WORKLOADS)}",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float,
        help="measure one workload for this long instead of a fixed number of passes",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics from traced passes "
        "(default: both)",
    )
    parser.add_argument("--passes", type=int, help="untraced passes per workload")
    parser.add_argument(
        "--quick", action="store_true", help="one pass, one set-up, every check on"
    )
    parser.add_argument("--out", metavar="PATH", help="write the results as JSON (for --compare)")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --out files; exit 1 on any 'worse' or a rise in failed_frac",
    )
    parser.add_argument(
        "--reference", default=str(spec.REFERENCE_PATH), metavar="PATH",
        help="reference ledgers to check against",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="regenerate the reference ledgers from this run instead of checking them",
    )
    parser.add_argument("--serve", choices=spec.WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-reps", type=int, default=spec.SETUP_REPS, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.serve:
        from benchmarks.lrcbench.worker import serve

        return serve(args.serve, args.seed, args.setup_reps, args.reference)

    names = args.workload or list(spec.WORKLOADS)
    if args.seconds is not None and len(names) != 1:
        print("lrcbench: --seconds needs exactly one --workload", file=sys.stderr)
        return 2
    end_to_end = spec.declared_metrics("end_to_end")
    per_layer = spec.declared_metrics("per_layer")
    traced = args.trace != 0
    setup_reps = 1 if args.quick else args.setup_reps
    reference = "" if args.write_reference else args.reference
    load_before = os.getloadavg()

    workers: Dict[str, WorkerProcess] = {}
    runs: Dict[str, Run] = {}
    try:
        for name in names:
            workers[name] = worker = WorkerProcess(name, args.seed, setup_reps, reference)
            runs[name] = Run(name, worker.ready["setup_s"], worker.ready["apps_events"])
        if args.seconds is not None:
            run_for_seconds(workers[names[0]], runs[names[0]], args.seconds, args.trace == 1)
        else:
            passes = {
                name: 1 if args.quick
                else args.passes or spec.DEFAULT_PASSES_BY_WORKLOAD.get(name, spec.DEFAULT_PASSES)
                for name in names
            }
            traced_rounds = min(spec.TRACED_PASSES, *passes.values()) if traced else 0
            run_rounds(workers, runs, passes, traced_rounds)
        for name in names:
            finish(workers[name], runs[name])
    finally:
        for worker in workers.values():
            worker.close()

    print(
        f"lrcbench seed={args.seed} scale={spec.SCALE} nproc={os.cpu_count()} "
        f"loadavg before={load_before[0]:.2f} after={os.getloadavg()[0]:.2f}"
    )
    for run in runs.values():
        print_run(run, end_to_end, per_layer)
    write_traces(runs)
    status = 0 if all(run.failed == 0 and run.attempted for run in runs.values()) else 1

    full = names == list(spec.WORKLOADS) and args.seconds is None
    if full and traced:
        measured = {name for run in runs.values() for name in (run.layers or {})}
        missing = sorted(set(per_layer) - measured)
        if missing:
            print(f"lrcbench: declared but never measured: {missing}", file=sys.stderr)
            status = 1
    if args.write_reference:
        if not full or args.seed != 0:
            print("lrcbench: --write-reference needs a full run at seed 0", file=sys.stderr)
            return 2
        write_reference(runs, args.seed, args.reference)
    record = results_record(runs, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if full and not args.quick and not args.write_reference:
        # The history keeps the summaries; the per-pass samples live in --out.
        for workload in record["workloads"].values():
            for stats in workload["end_to_end"].values():
                del stats["values"]
        spec.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with open(spec.HISTORY_PATH, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    if len(names) == 1:
        if args.trace == 1:
            unmeasured = sorted(set(per_layer) - set(runs[names[0]].layers or {}))
            print(f"not measured on {names[0]} (0 in the line below): {', '.join(unmeasured)}")
        print(contract_line(runs[names[0]], args.trace == 1, end_to_end, per_layer))
    return status
