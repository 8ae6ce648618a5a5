"""The coherence index: memoized fetch plans over the write-notice index.

Every lazy-protocol diff fetch — an LI access miss, an LU/LH eager pull,
a barrier update — answers the same three questions about one page's set
of pending modifying intervals:

1. which pending diffs survive overwrite pruning (§4.3's "no interval k
   ... in which the modification from interval j was overwritten"),
2. which *concurrent last modifiers* serve them (the paper's ``m``/``h``
   terms — the hb-maximal modifying intervals), and
3. how many wire bytes each server's aggregate diff occupies.

The test oracle (``tests/reference_oracle.py::ReferenceScans``)
recomputes all three per fetch with pairwise ``Interval.precedes`` calls
and per-fetch word-set sorts. This module computes them once per
``(page, pending-interval-set)`` into an immutable :class:`FetchPlan`
and memoizes it: synchronization patterns repeat (every processor
crossing a barrier sees the same pending set for a page; iterative apps
re-run the same lock hand-offs each timestep), so most fetches are a
dictionary hit.

The plan builder runs on the store's cached mod records
``(vc_sum, creator, index, vc_entries, diff)``:

* sorting records sorts by the cached vc-sum — a topological key for hb,
  because an interval's timestamp pointwise dominates those of its
  hb-predecessors (ties are concurrent). Only later records can
  hb-follow earlier ones, halving the pairwise work;
* ``precedes`` collapses to one integer compare against the cached
  entry tuple (same creator in topo order always precedes);
* aggregate wire sizes union the diffs' cached run lists (merge of
  sorted ``(start, length)`` intervals) instead of re-sorting word sets.

Plans are proc-independent — nothing in pruning, server assignment, or
aggregation depends on who fetches — which is what makes the memo sound.

A plan's key is ``(page, ids)``, ``ids`` the pending set as a *sorted
tuple* of the store's own interval-id objects
(``IntervalStore.ids``): a tuple is a
fraction of a frozenset's size, and sharing the ids means a key adds
only its own pointers. The memo is what lets LU and LH reuse LI's
plans, so it keeps every key it sees (up to its bound); plans with
equal server lists share one ``by_server`` tuple.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.types import PageId, ProcId
from repro.hb.interval import IntervalId
from repro.hb.store import IntervalStore
from repro.memory.diff import Diff
from repro.network.costs import CostModel

#: ``(server, n_diffs, payload_bytes)`` per server, sorted by server id.
ServerList = Tuple[Tuple[ProcId, int, int], ...]


class FetchPlan:
    """Everything one diff fetch of one page does, precomputed.

    Attributes:
        page: the page the plan covers.
        by_server: ``(server, n_diffs, payload_bytes)`` per concurrent
            last modifier, sorted by server id — one request/reply pair
            each, with the aggregate diff's run-length-encoded size.
        apply: the post-pruning diffs in happened-before order, ready to
            fold into a page copy.
        total_diffs: sum of the per-server diff counts.
        total_payload: sum of the per-server payload bytes — with
            ``total_diffs``, the whole-fetch accounting the tape-mode
            bulk path applies in one step instead of per server.
    """

    __slots__ = ("page", "by_server", "apply", "total_diffs", "total_payload")

    def __init__(
        self,
        page: PageId,
        by_server: ServerList,
        apply: Tuple[Diff, ...],
    ):
        self.page = page
        self.by_server = by_server
        self.apply = apply
        self.total_diffs = sum(entry[1] for entry in by_server)
        self.total_payload = sum(entry[2] for entry in by_server)


class RunFetchPlan:
    """One fetch covering every faulting page of an access run.

    Attributes:
        by_server: ``(server, n_diffs, payload_bytes)`` tuples merged
            across all pages, sorted by server id — one request/reply
            pair each, identical to folding the per-page plans' server
            lists into one accumulator.
        plans: the per-page :class:`FetchPlan`s, in faulting order —
            the apply loop and ``diff_apply`` emission still go page by
            page.
        total_diffs: sum of the per-server diff counts.
        total_payload: sum of the per-server payload bytes (see
            :class:`FetchPlan`).
    """

    __slots__ = ("by_server", "plans", "total_diffs", "total_payload")

    def __init__(
        self,
        by_server: ServerList,
        plans: Tuple[FetchPlan, ...],
    ):
        self.by_server = by_server
        self.plans = plans
        self.total_diffs = sum(entry[1] for entry in by_server)
        self.total_payload = sum(entry[2] for entry in by_server)


class FetchPlanner:
    """Builds and memoizes :class:`FetchPlan`s from the write-notice index."""

    __slots__ = (
        "_store",
        "_prune",
        "_run_header_bytes",
        "_word_bytes",
        "_memo",
        "_servers",
    )

    #: Bounded memo; cleared wholesale if a pathological trace produces
    #: more distinct pending sets than any real synchronization pattern.
    _MEMO_LIMIT = 1 << 15

    def __init__(self, store: IntervalStore, cost_model: CostModel, prune_overwritten: bool):
        self._store = store
        self._prune = prune_overwritten
        self._run_header_bytes = cost_model.diff_run_header_bytes
        self._word_bytes = cost_model.word_bytes
        self._memo: Dict[Tuple[PageId, Tuple[IntervalId, ...]], FetchPlan] = {}
        #: One ``by_server`` tuple per distinct server list among the
        #: memoized plans; cleared with the memo.
        self._servers: Dict[ServerList, ServerList] = {}

    def plan(self, page: PageId, interval_ids: Tuple[IntervalId, ...]) -> FetchPlan:
        """The fetch plan for ``page`` given its pending modifying intervals.

        ``interval_ids`` is the pending set as a sorted tuple of the
        store's id objects — the memo key, so one set has one key.
        """
        key = (page, interval_ids)
        plan = self._memo.get(key)
        if plan is not None:
            return plan
        mods = self._store.page_mods(page)
        try:
            if len(interval_ids) == 1:
                # One pending modification: nothing to prune or route.
                (interval_id,) = interval_ids
                _, creator, _, _, diff = mods[interval_id]
                size = len(diff.runs()) * self._run_header_bytes
                size += len(diff.words) * self._word_bytes
                return self._keep(key, ((creator, 1, size),), (diff,))
            recs = sorted(mods[interval_id] for interval_id in interval_ids)
        except KeyError as exc:  # pragma: no cover - notices name real diffs
            raise AssertionError(
                f"notice without diff: {exc.args[0]}, page {page}"
            ) from exc
        if self._prune:
            recs = self._pruned(recs)
        return self._keep(key, self._assign_servers(recs), tuple(rec[4] for rec in recs))

    def _keep(self, key: tuple, by_server: ServerList, apply: Tuple[Diff, ...]) -> FetchPlan:
        """Memoize a new plan under ``key``, sharing an equal server list."""
        memo = self._memo
        servers = self._servers
        if len(memo) >= self._MEMO_LIMIT:
            memo.clear()
            servers.clear()
        memo[key] = plan = FetchPlan(key[0], servers.setdefault(by_server, by_server), apply)
        return plan

    def plan_run(self, items) -> RunFetchPlan:
        """One plan covering all misses of an access run.

        ``items`` is a sequence of ``(page, sorted-tuple-of-interval-ids)``
        pairs (:meth:`plan`'s keys) in faulting order. The page plans
        come from the memo; their cross-page server merge is built on
        every call. Multi-page fetches (LU/LH pulls, barrier updates)
        seldom repeat: over a cold figures grid 9–10 % of run shapes
        recur, against about 61 % of page-plan keys, so a run memo
        would keep every shape for a one-in-ten hit.
        """
        plans = tuple(self.plan(page, interval_ids) for page, interval_ids in items)
        merged: Dict[ProcId, List[int]] = {}
        for page_plan in plans:
            for server, count, payload in page_plan.by_server:
                totals = merged.get(server)
                if totals is None:
                    merged[server] = [count, payload]
                else:
                    totals[0] += count
                    totals[1] += payload
        by_server = tuple(
            (server, merged[server][0], merged[server][1]) for server in sorted(merged)
        )
        return RunFetchPlan(by_server, plans)

    # -- plan building -------------------------------------------------------

    def _pruned(self, recs: List) -> List:
        """Drop records whose every word a later (hb) record rewrites.

        ``recs`` is in topological order, so only records at higher
        positions can hb-follow a given one. Candidates are scanned in
        *descending* topo order so each record's fate is final before it
        can serve as a witness, and witnesses are restricted to records
        that themselves survive: hb-order and word containment are both
        transitive, so a containment through an overwritten record is
        also witnessed by whatever (live) record overwrote it. Two
        phases keep the subset checks off the hot path:

        * records modifying the *same* word set (equal cached run
          signatures — the dominant pattern, a data structure's region
          rewritten each pass) are grouped, and each group is scanned
          once against the running pointwise-max timestamp of its later
          members: a member with a later in-group hb-follower is
          overwritten, no word comparison needed;
        * only a *strictly larger* follower can otherwise contain a
          record, so the remaining pairwise pass compares word sets just
          for size-increasing (and hb-ordered) live pairs.
        """
        n = len(recs)
        if n <= 12:
            # Small pending sets dominate; direct pairwise checks beat
            # building the grouping structures below.
            killed = [False] * n
            for i in range(n - 2, -1, -1):
                _, creator, index, _, diff = recs[i]
                words = diff.words
                size = len(words)
                runs_i = diff.runs()
                for j in range(i + 1, n):
                    if killed[j]:
                        continue
                    follower = recs[j]
                    if follower[1] != creator and follower[3][creator] < index:
                        continue
                    fdiff = follower[4]
                    fsize = len(fdiff.words)
                    if fsize == size:
                        if fdiff.runs() == runs_i:
                            killed[i] = True
                            break
                    elif fsize > size and words.keys() <= fdiff.words.keys():
                        killed[i] = True
                        break
            return [rec for i, rec in enumerate(recs) if not killed[i]]
        killed = [False] * n
        by_sig: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
        for i, rec in enumerate(recs):
            by_sig.setdefault(rec[4].runs(), []).append(i)
        for group in by_sig.values():
            if len(group) < 2:
                continue
            first_creator = recs[group[0]][1]
            if all(recs[i][1] == first_creator for i in group[1:]):
                # One processor rewrote the region repeatedly (the common
                # pattern — partitioned data): its own later interval
                # always hb-follows, so only the last rewrite survives.
                for i in group[:-1]:
                    killed[i] = True
                continue
            suffix: Optional[List[int]] = None
            for i in reversed(group):
                _, creator, index, entries, _ = recs[i]
                if suffix is None:
                    suffix = list(entries)
                else:
                    if suffix[creator] >= index:
                        killed[i] = True
                    for p, e in enumerate(entries):
                        if e > suffix[p]:
                            suffix[p] = e
        lens = [len(rec[4].words) for rec in recs]
        by_size: Dict[int, List[int]] = {}
        for i, size in enumerate(lens):
            by_size.setdefault(size, []).append(i)
        if len(by_size) == 1:
            # Uniform sizes: only the equal-set phase above can prune.
            return [rec for i, rec in enumerate(recs) if not killed[i]]
        # Word-range bounds per record: containment needs the candidate's
        # range inside the follower's, which two integer compares reject
        # for the dominant case of processors writing disjoint regions.
        bounds: List[Tuple[int, int]] = []
        for rec in recs:
            rec_runs = rec[4].runs()
            last = rec_runs[-1]
            bounds.append((rec_runs[0][0], last[0] + last[1] - 1))
        sizes_desc = sorted(by_size, reverse=True)
        for i in range(n - 2, -1, -1):
            if killed[i]:
                continue
            rec = recs[i]
            size = lens[i]
            lo, hi = bounds[i]
            _, creator, index, _, diff = rec
            keys = diff.words.keys()
            contained = False
            for s in sizes_desc:
                if s <= size:
                    break
                for j in by_size[s]:
                    if j <= i or killed[j]:
                        continue
                    flo, fhi = bounds[j]
                    if flo > lo or fhi < hi:
                        continue
                    follower = recs[j]
                    if (
                        follower[1] == creator or follower[3][creator] >= index
                    ) and keys <= follower[4].words.keys():
                        contained = True
                        break
                if contained:
                    break
            if contained:
                killed[i] = True
        return [rec for i, rec in enumerate(recs) if not killed[i]]

    def _assign_servers(self, recs: List) -> ServerList:
        """Route each record to a concurrent last modifier, aggregate sizes.

        A record is hb-maximal iff no later (topo-order) record follows
        it — tested against the running pointwise maximum of the later
        records' timestamps (O(n·P) instead of pairwise O(n²)); every
        record is served by the hb-latest maximal record that covers it
        (itself, if maximal) — the creator's copy provably contains the
        modification.
        """
        n = len(recs)
        header, word = self._run_header_bytes, self._word_bytes
        if n == 1:
            rec = recs[0]
            diff = rec[4]
            return (
                (rec[1], 1, len(diff.runs()) * header + len(diff.words) * word),
            )
        if n == 2:
            _, c0, i0, _, d0 = recs[0]
            _, c1, _, entries1, d1 = recs[1]
            if c1 == c0 or entries1[c0] >= i0:
                # The later record covers the earlier: one server, one
                # aggregate diff.
                return ((c1, 2, self._aggregate_bytes([d0, d1])),)
            b0 = (c0, 1, len(d0.runs()) * header + len(d0.words) * word)
            b1 = (c1, 1, len(d1.runs()) * header + len(d1.words) * word)
            return (b0, b1) if c0 < c1 else (b1, b0)
        # suffix_max[i] = pointwise max of the vc entries of recs[i+1:].
        # Record i has an hb-follower among the later records iff that
        # maximum covers its own entry (suffix_max[i][creator] >= index).
        maximal: List[int] = []
        suffix: Optional[List[int]] = None
        for i in range(n - 1, -1, -1):
            _, creator, index, entries, _ = recs[i]
            if suffix is None:
                maximal.append(i)
                suffix = list(entries)
            else:
                if suffix[creator] < index:
                    maximal.append(i)
                for p, e in enumerate(entries):
                    if e > suffix[p]:
                        suffix[p] = e
        maximal.reverse()
        by_server: Dict[ProcId, List[Diff]] = {}
        for i in range(n):
            _, creator, index, _, diff = recs[i]
            server = creator
            for j in reversed(maximal):
                if j <= i:
                    break
                follower = recs[j]
                if follower[1] == creator or follower[3][creator] >= index:
                    server = follower[1]
                    break
            by_server.setdefault(server, []).append(diff)
        return tuple(
            (server, len(diffs), self._aggregate_bytes(diffs))
            for server, diffs in sorted(by_server.items())
        )

    def _aggregate_bytes(self, diffs: List[Diff]) -> int:
        """Wire size of one server's aggregate diff of one page.

        Hb-ordered diffs collapse into one aggregate — the union of
        their modified words, run-length encoded — computed by merging
        the diffs' cached run lists.
        """
        header, word = self._run_header_bytes, self._word_bytes
        if len(diffs) == 1:
            diff = diffs[0]
            return len(diff.runs()) * header + len(diff.words) * word
        runs: List[Tuple[int, int]] = []
        for diff in diffs:
            runs.extend(diff.runs())
        runs.sort()
        start, length = runs[0]
        cur_start, cur_end = start, start + length - 1
        n_runs = 0
        n_words = 0
        for start, length in runs[1:]:
            end = start + length - 1
            if start <= cur_end + 1:
                if end > cur_end:
                    cur_end = end
            else:
                n_runs += 1
                n_words += cur_end - cur_start + 1
                cur_start, cur_end = start, end
        n_runs += 1
        n_words += cur_end - cur_start + 1
        return n_runs * header + n_words * word
