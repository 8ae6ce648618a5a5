"""Unit tests for pages, page tables, and the address space."""

import pytest

from repro.common.types import WORD_SIZE
from repro.memory.address_space import AddressSpace
from repro.memory.page import Page, PageEntry, PageState, PageTable


class TestPage:
    def test_unwritten_words_read_zero(self):
        page = Page(3)
        assert page.read(17) == 0

    def test_write_then_read(self):
        page = Page(0)
        page.write(5, 42)
        assert page.read(5) == 42

    def test_copy_is_independent(self):
        page = Page(0)
        page.write(1, 1)
        clone = page.copy()
        clone.write(1, 2)
        assert page.read(1) == 1


class TestPageEntry:
    def test_starts_missing_and_clean(self):
        entry = PageEntry(7)
        assert entry.state == PageState.MISSING
        assert not entry.is_dirty

    def test_clear_dirty_starts_a_new_write_set(self):
        entry = PageEntry(0)
        entry.dirty_words[3] = 9
        words = entry.dirty_words
        entry.clear_dirty()
        # A diff built from the old write set keeps it.
        assert not entry.is_dirty and words == {3: 9}


class TestPageTable:
    def test_entry_created_on_demand(self):
        table = PageTable(0)
        entry = table.entry(12)
        assert entry.page_id == 12
        assert table.entry(12) is entry

    def test_lookup_returns_none_for_untouched(self):
        assert PageTable(0).lookup(5) is None

    def test_has_copy_semantics(self):
        table = PageTable(0)
        entry = table.entry(1)
        assert not table.has_copy(1)
        entry.state = PageState.VALID
        assert table.has_copy(1) and table.is_valid(1)
        entry.state = PageState.INVALID
        assert table.has_copy(1) and not table.is_valid(1)

    def test_dirty_pages(self):
        table = PageTable(0)
        table.entry(1).dirty_words[0] = 5
        table.entry(2)
        assert table.dirty_pages() == {1}

    def test_iteration_and_len(self):
        table = PageTable(0)
        table.entry(1)
        table.entry(2)
        assert len(table) == 2
        assert {e.page_id for e in table} == {1, 2}


class TestAddressSpace:
    def test_alloc_is_sequential(self):
        space = AddressSpace()
        a = space.alloc("a", 8)
        b = space.alloc("b", 8)
        assert a.base == 0 and b.base == 8

    def test_alignment(self):
        space = AddressSpace()
        space.alloc("a", 4)
        b = space.alloc("b", 8, align=64)
        assert b.base == 64

    def test_size_rounded_to_words(self):
        region = AddressSpace().alloc("a", 5)
        assert region.size == 8

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc("x", 4)
        with pytest.raises(ValueError):
            space.alloc("x", 4)

    def test_bad_parameters_rejected(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.alloc("a", 0)
        with pytest.raises(ValueError):
            space.alloc("b", 4, align=3)

    def test_region_word_addressing(self):
        region = AddressSpace().alloc_words("arr", 10)
        assert region.word_addr(3) == region.base + 3 * WORD_SIZE
        assert region.n_words == 10

    def test_region_bounds_checked(self):
        region = AddressSpace().alloc("a", 8)
        with pytest.raises(IndexError):
            region.addr(8)

    def test_region_of(self):
        space = AddressSpace()
        a = space.alloc("a", 16)
        space.alloc("b", 16)
        assert space.region_of(a.base + 4) == "a"
        assert space.region_of(a.end) == "b"
        with pytest.raises(KeyError):
            space.region_of(10_000)

    def test_regions_in_order(self):
        space = AddressSpace()
        space.alloc("z", 4)
        space.alloc("a", 4)
        assert [r.name for r in space.regions()] == ["z", "a"]
