"""Memory substrate: pages, word-granularity diffs, address space.

The multiple-writer protocols of Munin and LRC rely on *twinning and
diffing*: before the first write to a page, the writer snapshots a twin;
a *diff* — the run-length-encoded set of words that changed relative to
the twin — is what travels on the wire instead of the whole page (§3,
§4.3). The simulator knows every write's word from the trace, so a page
entry accumulates the write set directly (``PageEntry.dirty_words``) and
no twin is kept; the lazy family's diffs come from the trace's
happened-before skeleton (:func:`repro.hb.skeleton.build_skeleton`).
Pages hold real values so the consistency checker can verify end-to-end
that every protocol delivers the happened-before-latest data.
"""

from repro.memory.page import Page, PageState, PageEntry, PageTable
from repro.memory.diff import Diff
from repro.memory.address_space import AddressSpace, Region

__all__ = [
    "Page",
    "PageState",
    "PageEntry",
    "PageTable",
    "Diff",
    "AddressSpace",
    "Region",
]
