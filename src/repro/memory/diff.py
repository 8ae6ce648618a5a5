"""Word-granularity diffs.

A diff records, for one page, the words an interval modified and their new
values. A real DSM finds them by comparing the page with its twin; the
simulator takes them from the trace's write set (see :mod:`repro.memory`).
Diffs are merged run-length encoded onto the wire and applied to page
copies in happened-before order (§4.3.3: "The happened
before partial order specifies the order in which the diffs need to be
applied").
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.common.types import PageId, ProcId
from repro.network.costs import CostModel


class Diff:
    """The modifications one interval made to one page.

    Attributes:
        page: the page the diff belongs to.
        creator: processor that made the modifications.
        interval: the creator's interval index in which they were made.
        words: mapping word-index -> new value.
    """

    __slots__ = ("page", "creator", "interval", "words", "_runs")

    def __init__(
        self,
        page: PageId,
        creator: ProcId,
        interval: int,
        words: Dict[int, int],
        *,
        copy: bool = True,
    ):
        """``copy=False`` transfers ownership of ``words`` to the diff —
        valid only when the caller never mutates the dict afterwards
        (e.g. the interval close path, which rebinds the page entry's
        ``dirty_words`` to a fresh dict right after)."""
        if not words:
            raise ValueError("a diff must contain at least one modified word")
        self.page = page
        self.creator = creator
        self.interval = interval
        self.words = dict(words) if copy else words
        self._runs: Optional[Tuple[Tuple[int, int], ...]] = None

    # -- wire size ---------------------------------------------------------

    def runs(self) -> Tuple[Tuple[int, int], ...]:
        """Contiguous runs of modified words as (first_index, length).

        Computed once and cached as a tuple: the word set is fixed at
        construction, the wire-size accounting re-reads the runs on every
        fetch that aggregates this diff, and — runs being a canonical
        form of the word-index set — the tuple doubles as a hashable
        signature (two diffs modify the same words iff their runs are
        equal), which the fetch planner's pruning groups by.
        """
        runs = self._runs
        if runs is not None:
            return runs
        indices = sorted(self.words)
        acc = []
        start = prev = indices[0]
        for idx in indices[1:]:
            if idx == prev + 1:
                prev = idx
                continue
            acc.append((start, prev - start + 1))
            start = prev = idx
        acc.append((start, prev - start + 1))
        runs = self._runs = tuple(acc)
        return runs

    def wire_bytes(self, cost_model: CostModel) -> int:
        """Bytes this diff occupies in a message payload."""
        runs = self.runs()
        return (
            len(runs) * cost_model.diff_run_header_bytes
            + len(self.words) * cost_model.word_bytes
        )

    # -- application ---------------------------------------------------------

    def apply_to(self, words: Dict[int, int]) -> None:
        """Overwrite ``words`` (a page copy) with this diff's modifications."""
        words.update(self.words)

    def overlaps(self, other: "Diff") -> bool:
        """True if the two diffs modify at least one common word."""
        if self.page != other.page:
            return False
        mine, theirs = self.words, other.words
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        return any(idx in theirs for idx in mine)

    def __repr__(self) -> str:
        return (
            f"Diff(page={self.page}, p{self.creator}.i{self.interval}, "
            f"{len(self.words)} words)"
        )


def apply_in_order(diffs: Iterable[Diff], words: Dict[int, int]) -> None:
    """Apply ``diffs`` to a page copy in the given (hb) order."""
    for diff in diffs:
        diff.apply_to(words)
