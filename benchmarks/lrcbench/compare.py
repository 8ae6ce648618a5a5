"""``--compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric), with both medians and
quartiles, the ratio B/A, and a verdict by the choosing-metrics rule:

* ``worse`` — B's median is worse than A's by more than the metric's
  bound (from ``BENCHMARK.json``);
* ``unresolved`` — either side's quartile spread is wider than the
  bound, so a difference of that size could hide in the noise — unless
  every sample of one side beats every sample of the other;
* ``better`` — B's median is better by more than A's own quartile
  spread;
* ``same`` — otherwise.
"""

from __future__ import annotations

import json
from typing import Dict

from benchmarks.lrcbench import spec


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verdict(a: Dict[str, object], b: Dict[str, object], better: str, bound: float) -> str:
    """Verdict for one metric from two ``summarize`` records with samples."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B worse, as a share of A's median.
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    spread_a = (a["q3"] - a["q1"]) / a["median"]
    spread_b = (b["q3"] - b["q1"]) / b["median"]
    if max(spread_a, spread_b) > bound:
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        if max(b_vals) < min(a_vals):
            return "better"
        if min(b_vals) > max(a_vals) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread_a and worsening < 0:
        return "better"
    return "same"


def compare_files(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    declared = spec.declared_metrics("end_to_end")
    status = 0
    print(f"A = {path_a} ({a.get('git_sha')})  B = {path_b} ({b.get('git_sha')})")
    print(
        f"{'workload':<12}{'metric':<14}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
        f"{'B/A':>8}  verdict"
    )
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            continue
        for metric, stats_a in run_a["end_to_end"].items():
            stats_b = run_b["end_to_end"].get(metric)
            if stats_b is None or metric not in declared:
                continue
            result = verdict(
                stats_a, stats_b, declared[metric]["better"], declared[metric]["bound"]
            )
            status |= result == "worse"

            def cell(s):
                return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"

            print(
                f"{workload:<12}{metric:<14}{cell(stats_a):>34}{cell(stats_b):>34}"
                f"{stats_b['median'] / stats_a['median']:>8.3f}  {result}"
            )
        frac_a = run_a["failed"] / max(run_a["attempted"], 1)
        frac_b = run_b["failed"] / max(run_b["attempted"], 1)
        rose = frac_b > frac_a
        status |= rose
        print(
            f"{workload:<12}{'failed_frac':<14}{frac_a:>34.4f}{frac_b:>34.4f}{'':>8}  "
            f"{'worse' if rose else 'same'}"
        )
        if a.get("seed") == b.get("seed"):
            same = run_a["ledger_digest"] == run_b["ledger_digest"]
            print(f"{workload:<12}simulated ledgers {'bit-identical' if same else 'DIFFER'}")
    return int(status)
