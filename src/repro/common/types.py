"""Typed identifiers and address arithmetic.

The simulated shared address space is byte addressed. Pages are aligned,
power-of-two sized blocks; diffs operate at word (4-byte) granularity,
matching the word-granularity diffs of Munin and the LRC paper.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

#: Identifier of a processor (0 .. n_procs-1).
ProcId = int

#: Identifier of a page (addr // page_size).
PageId = int

#: Identifier of an exclusive lock.
LockId = int

#: Identifier of a barrier.
BarrierId = int

#: A byte address in the shared address space.
Addr = int

#: Diff granularity in bytes. Munin used word-granularity diffs.
WORD_SIZE = 4


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_page_size(page_size: int) -> None:
    """Raise :class:`~repro.common.errors.ConfigError` unless
    ``page_size`` is a power of two of at least 8 bytes."""
    if not is_power_of_two(page_size):
        raise ConfigError(f"page_size must be a power of two, got {page_size}")
    if page_size < 8:
        raise ConfigError(f"page_size too small: {page_size}")


def page_of(addr: Addr, page_size: int) -> PageId:
    """Return the page id containing byte address ``addr``."""
    return addr // page_size


def page_offset(addr: Addr, page_size: int) -> int:
    """Return the byte offset of ``addr`` within its page."""
    return addr % page_size


def word_index(addr: Addr, page_size: int) -> int:
    """Return the word index of ``addr`` within its page.

    Words are the granularity at which diffs record modifications.
    """
    return (addr % page_size) // WORD_SIZE


def words_in_range(addr: Addr, size: int, page_size: int) -> range:
    """Word indices (within ``addr``'s page) covered by ``[addr, addr+size)``.

    The range is clipped to the page containing ``addr``; accesses that
    span pages must be split by the caller (the trace layer does this).
    """
    if size <= 0:
        raise ValueError(f"access size must be positive, got {size}")
    first = word_index(addr, page_size)
    last_byte = min(page_offset(addr, page_size) + size - 1, page_size - 1)
    last = last_byte // WORD_SIZE
    return range(first, last + 1)


def align_down(addr: Addr, alignment: int) -> Addr:
    """Round ``addr`` down to a multiple of ``alignment``."""
    return addr - (addr % alignment)


def align_up(addr: Addr, alignment: int) -> Addr:
    """Round ``addr`` up to a multiple of ``alignment``."""
    return align_down(addr + alignment - 1, alignment)
