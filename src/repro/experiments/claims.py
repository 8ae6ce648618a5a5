"""The paper's claims, each written once.

A claim is data: an id, where the paper (or an extension) makes it, the
key of the evidence it is judged on, its statement, a predicate over
that evidence, and whether it also holds on the tier-1 fixture traces.
:data:`BUILDERS` turns an evidence key into evidence from a *trace
factory* — ``make_trace(app, seed=..., n_procs=...)``, i.e.
:func:`repro.apps.generate` (16 processors, each app's default scale)
or a test suite's small traces — and a seed. One registry, three
consumers:

- ``tests/test_claims.py`` — the fixture subset in tier-1; every claim
  under ``-m tier2`` at 16 processors and default scale for seeds 0-4;
- :func:`repro.experiments.figures.expected_shapes` — the
  ``figure:<app>`` entries, statement -> predicate over one sweep;
- ``lrc-sim figures`` — one ``claim <id>: holds|FAILS`` line per
  ``figure:<app>`` entry of every app it regenerates.

EXPERIMENTS.md records every claim id beside the numbers it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.analysis.locks import analyze_locks
from repro.analysis.timing_report import estimate_runtime
from repro.apps.synthetic import false_sharing
from repro.experiments.ablation import (
    run_ack_ablation,
    run_diff_ablation,
    run_false_sharing_sweep,
    run_piggyback_ablation,
)
from repro.experiments.figures import FIGURES, run_figure, run_lock_chain
from repro.experiments.table1 import run_table1
from repro.network.link import LinkModel
from repro.simulator.engine import simulate
from repro.simulator.sweep import SweepResult
from repro.trace.stream import TraceStream

#: ``make_trace(app, seed=..., n_procs=...)``; ``n_procs`` defaults to
#: the factory's own machine size.
TraceFactory = Callable[..., TraceStream]
#: Evidence from a trace factory and a seed.
Builder = Callable[[TraceFactory, int], Any]


@dataclass(frozen=True)
class Claim:
    """One qualitative claim and how it is judged."""

    id: str
    #: Where the paper makes it (or the extension it belongs to).
    section: str
    #: Key into :data:`BUILDERS`.
    evidence: str
    #: The statement; for ``figure:<app>`` entries, the name
    #: :func:`~repro.experiments.figures.expected_shapes` returns.
    text: str
    predicate: Callable[[Any], bool]
    #: Whether it also holds on the tier-1 fixtures (8-processor small
    #: traces); ``note`` says why not, or from what scale it holds.
    fixture: bool = True
    note: str = ""


# --- Figures 5-14: one sweep per application ---------------------------

Check = Callable[[SweepResult, int], bool]


def _all_sizes(check: Check) -> Callable[[SweepResult], bool]:
    return lambda s: all(check(s, i) for i in range(len(s.page_sizes)))


def _large_sizes(check: Check, floor: int = 1024) -> Callable[[SweepResult], bool]:
    return lambda s: all(
        check(s, i) for i in range(len(s.page_sizes)) if s.page_sizes[i] >= floor
    )


def _msg(s: SweepResult, proto: str, i: int) -> int:
    return s.message_series(proto)[i]


def _dat(s: SweepResult, proto: str, i: int) -> float:
    return s.data_series(proto)[i]


def _misses(s: SweepResult, proto: str, i: int) -> int:
    return s.grid[(proto, s.page_sizes[i])].misses


def _last(s: SweepResult) -> int:
    return len(s.page_sizes) - 1


#: (slug, statement, predicate) of the claims every application's
#: figures make.
_EVERY_APP = (
    # §7: "the number of messages and the amount of data exchanged are
    # generally smaller for the lazy algorithm" — per policy pair.
    ("li-fewer-messages-than-ei", "LI fewer messages than EI",
     _all_sizes(lambda s, i: _msg(s, "LI", i) < _msg(s, "EI", i))),
    ("lu-fewer-messages-than-eu", "LU fewer messages than EU",
     _all_sizes(lambda s, i: _msg(s, "LU", i) < _msg(s, "EU", i))),
    ("li-less-data-than-ei", "LI less data than EI",
     _all_sizes(lambda s, i: _dat(s, "LI", i) < _dat(s, "EI", i))),
    # 5% tolerance: at 512-byte pages our miniatures' whole-object
    # writes make LU diffs ~= EU diffs (see EXPERIMENTS.md).
    ("lu-data-within-eu", "LU data within/below EU data",
     _all_sizes(lambda s, i: _dat(s, "LU", i) < 1.05 * _dat(s, "EU", i))),
    # §5: EI serves misses with whole pages; once pages clearly exceed
    # typical write sets its data dwarfs every diff-based protocol.
    ("ei-data-worst", "EI data is the worst (pages >= 1K)",
     _large_sizes(lambda s, i: _dat(s, "EI", i) > max(_dat(s, p, i) for p in ("LI", "LU", "EU")))),
    # The gap widens with page size (false sharing grows, §5.8).
    ("ei-li-data-gap-grows", "EI/LI data gap grows with page size",
     lambda s: _dat(s, "EI", _last(s)) / _dat(s, "LI", _last(s)) > _dat(s, "EI", 0) / _dat(s, "LI", 0)),
)

# §5.3/§5.4: migratory, lock-controlled data — LI beats both eager
# protocols in messages (at 512B our LocusRoute grid rows coincide with
# pages and LI misses pull it within 2% of EU; see EXPERIMENTS.md, so
# the strict claim is asserted from 1K up).
_LI_BEATS_EAGER = (
    "li-beats-both-eager-messages", "LI beats both eager protocols in messages",
    _large_sizes(lambda s, i: _msg(s, "LI", i) < min(_msg(s, "EI", i), _msg(s, "EU", i))),
)
# §5.8: migratory data punishes eager update — EU sends at least as
# many messages as EI once pages hold whole migrating objects.
_EU_NO_BETTER = (
    "eu-no-better-than-ei", "EU no better than EI on migratory data",
    _large_sizes(lambda s, i: _msg(s, "EU", i) >= _msg(s, "EI", i), floor=2048),
)

#: (slug, statement, predicate[, fixture, note]) per application.
_PER_APP: Dict[str, Tuple[tuple, ...]] = {
    "locusroute": (
        _LI_BEATS_EAGER,
        _EU_NO_BETTER + (
            False,
            "on the 8-processor fixture copysets are small: EU sends 0.94x "
            "EI's messages at 2K-8K pages",
        ),
    ),
    "cholesky": (_LI_BEATS_EAGER, _EU_NO_BETTER),
    "mp3d": (
        # §5.5: update protocols incur fewer access misses.
        ("update-protocols-miss-less", "update protocols miss less",
         _all_sizes(lambda s, i: _misses(s, "LU", i) < _misses(s, "LI", i))),
        # Barrier-heavy category: lazy still clearly ahead on data.
        ("lazy-data-2x-below-ei", "lazy data at least 2x below EI",
         _all_sizes(lambda s, i: _dat(s, "LI", i) * 2 < _dat(s, "EI", i))),
    ),
    "water": (
        # §5.6: lazy data totals significantly lower (diffs, not pages).
        ("lazy-data-3x-below-ei", "lazy data at least 3x below EI",
         _all_sizes(lambda s, i: _dat(s, "LI", i) * 3 < _dat(s, "EI", i))),
        # EU re-updates every cached molecule page at every lock release.
        ("eu-most-messages", "EU sends the most messages",
         _all_sizes(lambda s, i: _msg(s, "EU", i) > max(_msg(s, p, i) for p in ("LI", "LU", "EI")))),
    ),
    "pthor": (
        # §5.7: "The message count for LI is higher than for LU, because
        # LI has more access misses." The miss ordering holds at every
        # page size; the message ordering emerges at large pages, where
        # each invalidation covers more of the read set.
        ("li-more-misses-than-lu", "LI more misses than LU",
         _all_sizes(lambda s, i: _misses(s, "LI", i) > _misses(s, "LU", i))),
        ("li-more-messages-than-lu-at-largest-page",
         "LI more messages than LU at the largest page",
         lambda s: _msg(s, "LI", _last(s)) > _msg(s, "LU", _last(s)),
         False,
         "LI overtakes LU once each miss pulls diffs from enough of the "
         "page's writers: at 16 processors it holds over seeds 0-4 from 120 "
         "logic elements up and fails at every seed from 112 down (the "
         "default is 256; scale=0.25 gives 64) — EXPERIMENTS.md, Figures 13/14"),
        # §5.7: "Data totals for EI are particularly high, because
        # frequent reloads cause the entire page to be sent."
        ("ei-data-3x-others", "EI data at least 3x every other protocol (pages >= 2K)",
         _large_sizes(
             lambda s, i: _dat(s, "EI", i) > 3 * max(_dat(s, p, i) for p in ("LI", "LU", "EU")),
             floor=2048,
         )),
    ),
}

_APP_SECTION = {
    "locusroute": "§5.3", "cholesky": "§5.4", "mp3d": "§5.5", "water": "§5.6", "pthor": "§5.7",
}


def _figure_claims(app: str) -> Tuple[Claim, ...]:
    spec = FIGURES[app]
    section = f"{_APP_SECTION[app]}, Figs. {spec.messages_figure}/{spec.data_figure}"
    return tuple(
        Claim(f"{app}.{slug}", section, f"figure:{app}", text, predicate, *rest)
        for slug, text, predicate, *rest in _EVERY_APP + _PER_APP[app]
    )


# --- Everything else, one entry per claim ------------------------------


def _ping_pongs(r) -> bool:
    return (
        r["EW"].messages > r["EI"].messages
        and r["EW"].messages > 5 * r["LI"].messages
        and r["EW"].data_bytes > 10 * r["LI"].data_bytes
        and r["EW"].counters["ping_pongs"] > 0
    )


def _lock_vs_barrier_split(reports) -> bool:
    """§5.8's two program categories, from the traces themselves."""
    return all(reports[app].lock_to_barrier_ratio > 5 for app in ("locusroute", "cholesky")) and all(
        reports[app].barrier_arrivals > 0 for app in ("mp3d", "water")
    )


def _bytes_per_miss(result) -> float:
    return result.data_bytes / max(result.misses, 1)


def _false_sharing_gap(grid, page_size: int) -> float:
    return grid[page_size]["EI"].data_bytes / max(grid[page_size]["LI"].data_bytes, 1)


_LH_FIXTURE = (
    "on the fixture's two-timestep MP3D and Water traces LH sends exactly "
    "LU's count, 1.31x and 1.19x LI's"
)

CLAIMS: Tuple[Claim, ...] = (
    Claim("table1.cells-match-model", "Table 1", "table1",
          "all 31 per-operation message counts equal the analytical model",
          lambda rows: len(rows) == 31 and all(row.ok for row in rows)),
    Claim("table1.covers-protocols-and-operations", "Table 1", "table1",
          "every protocol is priced on miss, lock, unlock and barrier",
          lambda rows: {r.protocol for r in rows} == {"LI", "LU", "EI", "EU"}
          and {r.operation for r in rows} == {"miss", "lock", "unlock", "barrier"}),
    Claim("lock-chain.eu-updates-every-release", "Fig. 3", "lock_chain",
          "eager update re-updates every cached copy at each release: "
          "release-time traffic, >1.5x LU's messages",
          lambda r: r["EU"].category_messages()["unlock"] > 0
          and r["EU"].messages > 1.5 * r["LU"].messages),
    Claim("lock-chain.lazy-silent-at-release", "Fig. 4", "lock_chain",
          "lazy protocols send nothing at a release",
          lambda r: all(r[p].category_messages()["unlock"] == 0 for p in ("LI", "LU"))),
    Claim("lock-chain.lazy-moves-less-data", "Fig. 4", "lock_chain",
          "the datum rides the lock grant: LI < EI and LU <= EU in data",
          lambda r: r["LI"].data_bytes < r["EI"].data_bytes
          and r["LU"].data_bytes <= r["EU"].data_bytes),
    *_figure_claims("locusroute"),
    *_figure_claims("cholesky"),
    *_figure_claims("mp3d"),
    *_figure_claims("water"),
    *_figure_claims("pthor"),
    Claim("workloads.lock-vs-barrier-split", "§5.8", "workloads",
          "LocusRoute and Cholesky are lock-dominated (>5 acquires per barrier "
          "arrival); MP3D and Water synchronize with barriers",
          _lock_vs_barrier_split),
    Claim("workloads.cholesky-no-barriers", "§5.4", "workloads",
          "Cholesky synchronizes with locks only: no barrier at all",
          lambda reports: reports["cholesky"].barrier_arrivals == 0),
    Claim("mp3d.misses-dominate-traffic", "§5.5, Figs. 9/10", "misses:mp3d",
          "MP3D's traffic is dominated by access misses: >30% of LI's and "
          "EI's messages at 2K pages",
          lambda cells: all(
              cells[p, 2048].category_messages()["miss"] > 0.3 * cells[p, 2048].messages
              for p in ("LI", "EI")
          )),
    Claim("mp3d.diffs-not-pages-per-miss", "§5.5, Figs. 9/10", "misses:mp3d",
          "lazy sends diffs, not pages, on a miss: LI moves <0.3x EI's bytes "
          "per miss at 4K pages",
          lambda cells: _bytes_per_miss(cells["LI", 4096])
          < 0.3 * _bytes_per_miss(cells["EI", 4096])),
    Claim("false-sharing.gap-grows-with-page-size", "§5.8", "false_sharing",
          "under pure false sharing the EI/LI data gap grows from 256 B to 4 KB pages",
          lambda g: _false_sharing_gap(g, 4096) > _false_sharing_gap(g, 256)),
    Claim("false-sharing.gap-above-3x", "§5.8", "false_sharing",
          "under pure false sharing EI moves >3x LI's data at 4 KB pages",
          lambda g: _false_sharing_gap(g, 4096) > 3.0),
    Claim("false-sharing.li-fewer-messages", "§5.8", "false_sharing",
          "processors that falsely share are not causally related: LI < EI "
          "in messages from 1 KB pages up",
          lambda g: all(g[s]["LI"].messages < g[s]["EI"].messages for s in g if s >= 1024)),
    Claim("ablation.diff-to-invalid-copy", "§4.3.3", "ablation:diff",
          "fetching diffs into a kept stale copy saves >50% of LI's data "
          "and adds no message",
          lambda a: a.data_saving > 0.5 and a.on.messages <= a.off.messages),
    Claim("ablation.notice-piggybacking", "§4.1", "ablation:piggyback",
          "write notices on the grant save messages and change no byte",
          lambda a: a.message_saving > 0 and a.on.data_bytes == a.off.data_bytes),
    Claim("ablation.ack-counting", "Table 1 (conventions)", "ablation:acks",
          "not counting eager acks removes 5-60% of EU's messages — it bounds "
          "the OCR ambiguity",
          lambda a: 0.05 < a.message_saving < 0.6),
    Claim("ew.ping-pong-on-false-sharing", "§4.3.1", "extension:exclusive_writer",
          "exclusive-writer pages ping-pong: EW > EI in messages, >5x LI's "
          "messages, >10x LI's data",
          lambda r: _ping_pongs(r["false_sharing"])),
    Claim("ew.worse-than-eager-on-locusroute", "§4.3.1", "extension:exclusive_writer",
          "on LocusRoute EW moves more data than EI and sends more messages than LI",
          lambda r: r["locusroute"]["EW"].data_bytes > r["locusroute"]["EI"].data_bytes
          and r["locusroute"]["EW"].messages > r["locusroute"]["LI"].messages),
    Claim("hlrc.near-zero-diff-retention", "extension: home-based LRC", "extension:hlrc",
          "HLRC retains <0.2x LI's peak diff bytes",
          lambda t: all(
              row["HLRC"].counters["peak_retained_diff_bytes"]
              < 0.2 * row["LI"].counters["peak_retained_diff_bytes"]
              for row in t.values()
          )),
    Claim("hlrc.more-data-than-li", "extension: home-based LRC", "extension:hlrc",
          "HLRC's whole-page misses move more data than LI",
          lambda t: all(row["HLRC"].data_bytes > row["LI"].data_bytes for row in t.values())),
    Claim("hlrc.messages-within-2x-of-li", "extension: home-based LRC", "extension:hlrc",
          "HLRC's message count stays within 2x of LI's either way",
          lambda t: all(0.5 < row["HLRC"].messages / row["LI"].messages < 2.0 for row in t.values())),
    Claim("lh.tracks-best-pure-policy", "§6 (extension: LH)", "extension:hybrid",
          "adaptive LH sends at most 1.15x the better pure policy's messages",
          lambda t: all(
              row["LH"].messages <= 1.15 * min(row["LI"].messages, row["LU"].messages)
              for row in t.values()
          ),
          fixture=False, note=_LH_FIXTURE),
    Claim("lh.near-li-on-water", "§6 (extension: LH)", "extension:hybrid",
          "on Water, where the pure policies differ most, LH sends <0.8x LU's messages",
          lambda t: t["water"]["LH"].messages < 0.8 * t["water"]["LU"].messages,
          fixture=False, note=_LH_FIXTURE),
    Claim("gc.lowers-peak-retention", "§5.1 (extension: diff GC)", "extension:gc",
          "barrier-time GC lowers LI's peak retained diff bytes",
          lambda r: r["on"].counters["peak_retained_diff_bytes"]
          < r["off"].counters["peak_retained_diff_bytes"]),
    Claim("gc.traffic-unchanged", "§5.1 (extension: diff GC)", "extension:gc",
          "GC is memory accounting only: messages and data unchanged",
          lambda r: r["on"].messages == r["off"].messages
          and r["on"].data_bytes == r["off"].data_bytes),
    Claim("runtime.li-cheapest", "§7 (extension: runtime estimate)", "extension:runtime",
          "under 1992 Ethernet constants LI is the cheapest protocol end to end",
          lambda e: e["LI"].total_seconds == min(x.total_seconds for x in e.values())),
    Claim("runtime.bookkeeping-small", "§7 (extension: runtime estimate)", "extension:runtime",
          "LI's interval bookkeeping is <30% of its estimated time",
          lambda e: e["LI"].bookkeeping_seconds < 0.3 * e["LI"].total_seconds),
    Claim("scaling.lazy-wins-at-every-size", "extension: processor count", "extension:scaling",
          "LI < EI in messages and data at 4, 8 and 16 processors",
          lambda t: all(
              row["LI"].messages < row["EI"].messages and row["LI"].data_bytes < row["EI"].data_bytes
              for row in t.values()
          )),
    Claim("scaling.eager-gap-widens", "extension: processor count", "extension:scaling",
          "the EI/LI message ratio grows from 4 to 16 processors",
          lambda t: t[16]["EI"].messages / t[16]["LI"].messages
          > t[4]["EI"].messages / t[4]["LI"].messages),
)


# --- Evidence ----------------------------------------------------------


def _cells(trace: TraceStream, protocols, page_size: int = 2048, **options):
    """``{protocol: result}`` of one trace at one page size."""
    return {p: simulate(trace, p, page_size=page_size, **options) for p in protocols}


def _per_app(apps, protocols) -> Builder:
    """``{app: {protocol: result}}`` at 2 KB pages."""
    return lambda make_trace, seed: {
        app: _cells(make_trace(app, seed=seed), protocols) for app in apps
    }


def _figure(app: str) -> Builder:
    return lambda make_trace, seed: run_figure(app, trace=make_trace(app, seed=seed))


def _ablation(run, protocol: str) -> Builder:
    return lambda make_trace, seed: run(
        trace=make_trace("locusroute", seed=seed), protocol=protocol, page_size=4096
    )


def _lock_chain(make_trace: TraceFactory, seed: int):
    results = run_lock_chain(n_procs=8, rounds=16, page_size=1024, seed=seed)
    return {result.protocol: result for result in results}


def _mp3d_misses(make_trace: TraceFactory, seed: int):
    trace = make_trace("mp3d", seed=seed)
    return {(p, s): simulate(trace, p, page_size=s) for p in ("LI", "EI") for s in (2048, 4096)}


def _exclusive_writer(make_trace: TraceFactory, seed: int):
    shared = false_sharing(n_procs=16, seed=seed, rounds=24, words_per_proc=8)
    return {
        "false_sharing": _cells(shared, ("LI", "LU", "EI", "EU", "EW")),
        "locusroute": _cells(make_trace("locusroute", seed=seed), ("LI", "EI", "EW"), 4096),
    }


def _gc(make_trace: TraceFactory, seed: int):
    trace = make_trace("mp3d", seed=seed)
    return {
        "off": simulate(trace, "LI", page_size=2048),
        "on": simulate(trace, "LI", page_size=2048, gc_at_barriers=True),
    }


def _runtime(make_trace: TraceFactory, seed: int):
    link = LinkModel.ethernet_1992()
    cells = _cells(make_trace("mp3d", seed=seed), ("LI", "LU", "EI", "EU"))
    return {p: estimate_runtime(result, link) for p, result in cells.items()}


def _scaling(make_trace: TraceFactory, seed: int):
    return {
        n: _cells(make_trace("locusroute", seed=seed, n_procs=n), ("LI", "EI", "EU"))
        for n in (4, 8, 16)
    }


BUILDERS: Dict[str, Builder] = {
    "table1": lambda make_trace, seed: run_table1(),
    "lock_chain": _lock_chain,
    **{f"figure:{app}": _figure(app) for app in FIGURES},
    "workloads": lambda make_trace, seed: {
        app: analyze_locks(make_trace(app, seed=seed)) for app in FIGURES
    },
    "misses:mp3d": _mp3d_misses,
    "false_sharing": lambda make_trace, seed: run_false_sharing_sweep(
        n_procs=16, seed=seed, page_sizes=[256, 512, 1024, 2048, 4096], rounds=24
    ),
    "ablation:diff": _ablation(run_diff_ablation, "LI"),
    "ablation:piggyback": _ablation(run_piggyback_ablation, "LI"),
    "ablation:acks": _ablation(run_ack_ablation, "EU"),
    "extension:exclusive_writer": _exclusive_writer,
    "extension:hlrc": _per_app(("locusroute", "mp3d", "pthor"), ("LI", "HLRC")),
    "extension:hybrid": _per_app(FIGURES, ("LI", "LU", "LH")),
    "extension:gc": _gc,
    "extension:runtime": _runtime,
    "extension:scaling": _scaling,
}


def claims_for(evidence: str) -> Tuple[Claim, ...]:
    """The entries judged on one evidence key, in registry order."""
    return tuple(claim for claim in CLAIMS if claim.evidence == evidence)
