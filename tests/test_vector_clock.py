"""Unit and property tests for vector clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.common.vector_clock import VectorClock

clocks = st.lists(st.integers(min_value=-1, max_value=50), min_size=1, max_size=8).map(
    VectorClock
)


def paired_clocks(n: int = 4):
    entry = st.integers(min_value=-1, max_value=50)
    return st.tuples(
        st.lists(entry, min_size=n, max_size=n).map(VectorClock),
        st.lists(entry, min_size=n, max_size=n).map(VectorClock),
    )


class TestBasics:
    def test_zero(self):
        clock = VectorClock.zero(4)
        assert len(clock) == 4
        assert all(entry == -1 for entry in clock)

    def test_zero_needs_positive_count(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([])

    def test_indexing_and_entries(self):
        clock = VectorClock([1, 2, 3])
        assert clock[0] == 1
        assert clock.entries() == (1, 2, 3)

    def test_equality_and_hash(self):
        assert VectorClock([1, 2]) == VectorClock([1, 2])
        assert hash(VectorClock([1, 2])) == hash(VectorClock([1, 2]))
        assert VectorClock([1, 2]) != VectorClock([2, 1])


class TestAdvance:
    def test_advanced_sets_entry(self):
        clock = VectorClock.zero(3).advanced(1, 5)
        assert clock.entries() == (-1, 5, -1)

    def test_advanced_is_pure(self):
        base = VectorClock.zero(2)
        base.advanced(0, 3)
        assert base.entries() == (-1, -1)

    def test_no_backwards(self):
        clock = VectorClock([5, 0])
        with pytest.raises(ValueError):
            clock.advanced(0, 4)


class TestOrder:
    def test_dominates_reflexive(self):
        clock = VectorClock([3, 1, 4])
        assert clock.dominates(clock)
        assert not clock.strictly_dominates(clock)

    def test_strict_domination(self):
        low = VectorClock([1, 1])
        high = VectorClock([2, 1])
        assert high.strictly_dominates(low)
        assert not low.dominates(high)

    def test_concurrent(self):
        a = VectorClock([2, 0])
        b = VectorClock([0, 2])
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_incompatible_sizes(self):
        with pytest.raises(ValueError):
            VectorClock([1]).dominates(VectorClock([1, 2]))


class TestMergeAndGaps:
    def test_merged_is_pointwise_max(self):
        merged = VectorClock([1, 5, 0]).merged(VectorClock([3, 2, 0]))
        assert merged.entries() == (3, 5, 0)

    def test_missing_from(self):
        sender = VectorClock([4, 2, -1])
        receiver = VectorClock([1, 2, -1])
        assert sender.missing_from(receiver) == [(0, 2, 4)]

    def test_missing_from_multiple_procs(self):
        sender = VectorClock([4, 3, 0])
        receiver = VectorClock([4, 1, -1])
        assert sender.missing_from(receiver) == [(1, 2, 3), (2, 0, 0)]

    def test_missing_from_nothing(self):
        clock = VectorClock([1, 2])
        assert clock.missing_from(clock) == []


class TestProperties:
    @given(paired_clocks())
    def test_merge_commutes(self, pair):
        a, b = pair
        assert a.merged(b) == b.merged(a)

    @given(paired_clocks())
    def test_merge_dominates_both(self, pair):
        a, b = pair
        merged = a.merged(b)
        assert merged.dominates(a) and merged.dominates(b)

    @given(paired_clocks())
    def test_order_trichotomy(self, pair):
        a, b = pair
        ordered = a.dominates(b) or b.dominates(a)
        assert ordered != a.concurrent_with(b)

    @given(paired_clocks())
    def test_missing_from_closes_the_gap(self, pair):
        """Applying all missing intervals brings the receiver up to date."""
        sender, receiver = pair
        entries = list(receiver.entries())
        for proc, _first, last in sender.missing_from(receiver):
            entries[proc] = max(entries[proc], last)
        assert VectorClock(entries).dominates(sender) or all(
            VectorClock(entries)[p] >= sender[p] for p in range(len(sender))
        )

    @given(clocks)
    def test_merge_idempotent(self, clock):
        assert clock.merged(clock) == clock


class TestEdgeCases:
    """Satellite coverage: equal clocks, monotonicity, symmetry, reuse."""

    def test_missing_from_equal_clocks_is_empty(self):
        a = VectorClock([3, 1, 4])
        b = VectorClock([3, 1, 4])
        assert a.missing_from(b) == []
        assert b.missing_from(a) == []

    def test_missing_from_self_is_empty(self):
        a = VectorClock([0, 0, 0])
        assert a.missing_from(a) == []

    def test_missing_from_ranges_are_inclusive(self):
        a = VectorClock([5, -1, 2])
        b = VectorClock([1, -1, 2])
        assert a.missing_from(b) == [(0, 2, 5)]
        assert b.missing_from(a) == []

    def test_advanced_monotonicity_error(self):
        clock = VectorClock([2, 5])
        with pytest.raises(ValueError, match="may not go backwards"):
            clock.advanced(1, 4)

    def test_advanced_same_index_is_allowed(self):
        clock = VectorClock([2, 5])
        assert clock.advanced(1, 5).entries() == (2, 5)

    def test_advanced_does_not_mutate(self):
        clock = VectorClock([0, 0])
        advanced = clock.advanced(0, 7)
        assert clock.entries() == (0, 0)
        assert advanced.entries() == (7, 0)

    @given(paired_clocks())
    def test_concurrent_with_symmetry(self, pair):
        a, b = pair
        assert a.concurrent_with(b) == b.concurrent_with(a)

    def test_concurrent_with_equal_clocks_is_false(self):
        a = VectorClock([1, 2])
        assert not a.concurrent_with(VectorClock([1, 2]))

    def test_merged_reuses_dominating_side(self):
        # The allocation-free fast path: when one clock already covers the
        # other, merged() returns an existing instance, never a copy.
        # The memo is process-wide and keyed by entries: an earlier
        # (Hypothesis-drawn) merge of equal entries would answer with
        # that test's instance.
        VectorClock._merge_memo.clear()
        low = VectorClock([0, 1, 2])
        high = VectorClock([3, 1, 2])
        assert high.merged(low) is high
        assert low.merged(high) is high
        assert low.merged(low) is low

    def test_merged_memo_returns_consistent_results(self):
        a = VectorClock([3, -1, 0])
        b = VectorClock([-1, 4, 0])
        first = a.merged(b)
        second = a.merged(b)
        assert first.entries() == (3, 4, 0)
        assert second is first  # memo hit

    @given(paired_clocks())
    def test_merged_matches_pointwise_max(self, pair):
        a, b = pair
        assert a.merged(b).entries() == tuple(
            max(x, y) for x, y in zip(a.entries(), b.entries())
        )

    def test_incompatible_lengths_rejected_everywhere(self):
        a = VectorClock([1, 2])
        b = VectorClock([1, 2, 3])
        for op in (a.dominates, a.merged, a.missing_from):
            with pytest.raises(ValueError, match="incompatible"):
                op(b)
