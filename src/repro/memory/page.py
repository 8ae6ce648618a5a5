"""Pages and per-processor page tables.

A :class:`Page` is a sparse word store (unwritten words read as 0). Each
simulated processor owns a :class:`PageTable` whose entries track the
protocol-visible state of every page it has touched: MISSING (never
fetched), VALID, or INVALID (cached but stale — LRC keeps invalidated
copies around so a later miss only needs diffs, §4.3.3).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set

from repro.common.types import PageId, ProcId


class Page:
    """One page's contents: sparse mapping word-index -> value."""

    __slots__ = ("page_id", "words")

    def __init__(self, page_id: PageId, words: Optional[Dict[int, int]] = None):
        self.page_id = page_id
        self.words: Dict[int, int] = dict(words) if words else {}

    def read(self, word: int) -> int:
        return self.words.get(word, 0)

    def write(self, word: int, value: int) -> None:
        self.words[word] = value

    def copy(self) -> "Page":
        return Page(self.page_id, self.words)

    def __repr__(self) -> str:
        return f"Page({self.page_id}, {len(self.words)} words set)"


class PageState(enum.Enum):
    """Protocol-visible state of a page at one processor."""

    MISSING = "missing"
    VALID = "valid"
    INVALID = "invalid"


class PageEntry:
    """One processor's view of one page.

    ``dirty_words`` accumulates the write set of the current interval,
    word -> token. A real DSM finds it by comparing the page with a twin
    snapshotted at the interval's first write; the trace gives every
    write's word, and every token is unique, so the two agree.
    """

    __slots__ = ("page", "state", "dirty_words")

    def __init__(self, page_id: PageId):
        self.page = Page(page_id)
        self.state = PageState.MISSING
        self.dirty_words: Dict[int, int] = {}

    @property
    def page_id(self) -> PageId:
        return self.page.page_id

    @property
    def is_dirty(self) -> bool:
        return bool(self.dirty_words)

    def clear_dirty(self) -> None:
        """Start a new write set; a diff built from the old one keeps it."""
        self.dirty_words = {}


class PageTable:
    """All page entries of one processor."""

    def __init__(self, proc: ProcId):
        self.proc = proc
        self._entries: Dict[PageId, PageEntry] = {}
        self._dirty: Dict[PageId, PageEntry] = {}

    def entry(self, page_id: PageId) -> PageEntry:
        """The entry for ``page_id``, created MISSING on first use."""
        entry = self._entries.get(page_id)
        if entry is None:
            entry = self._entries[page_id] = PageEntry(page_id)
        return entry

    def lookup(self, page_id: PageId) -> Optional[PageEntry]:
        """The entry if the page was ever touched here, else None."""
        return self._entries.get(page_id)

    def has_copy(self, page_id: PageId) -> bool:
        """True if a (valid or stale) copy of the page is cached here."""
        entry = self._entries.get(page_id)
        return entry is not None and entry.state != PageState.MISSING

    def is_valid(self, page_id: PageId) -> bool:
        entry = self._entries.get(page_id)
        return entry is not None and entry.state == PageState.VALID

    def dirty_pages(self) -> Set[PageId]:
        """Pages with un-flushed local modifications."""
        return {pid for pid, e in self._entries.items() if e.is_dirty}

    def mark_dirty(self, page_id: PageId, entry: PageEntry) -> None:
        """Register an entry in the dirty registry (first write of an interval)."""
        self._dirty[page_id] = entry

    def drain_dirty(self) -> List[PageEntry]:
        """Entries registered dirty since the last drain, in first-write order.

        Consumers must still check ``is_dirty``: a registered entry may
        have been cleaned through a path that does not drain the
        registry (eager flushes clean entries in place).
        """
        dirty = self._dirty
        if not dirty:
            return []
        entries = list(dirty.values())
        dirty.clear()
        return entries

    def __iter__(self) -> Iterator[PageEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        valid = sum(1 for e in self._entries.values() if e.state == PageState.VALID)
        return f"PageTable(p{self.proc}, {len(self._entries)} entries, {valid} valid)"
