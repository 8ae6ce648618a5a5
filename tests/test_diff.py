"""Unit and property tests for diffs."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.diff import Diff, apply_in_order
from repro.network.costs import CostModel

words_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=10_000),
    min_size=1,
    max_size=40,
)


class TestDiffBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Diff(0, 0, 0, {})

    def test_apply_overwrites(self):
        words = {0: 1, 1: 2}
        Diff(0, 1, 0, {1: 99, 2: 98}).apply_to(words)
        assert words == {0: 1, 1: 99, 2: 98}

    def test_overlaps(self):
        a = Diff(0, 0, 0, {1: 1, 2: 2})
        b = Diff(0, 1, 0, {2: 9})
        c = Diff(0, 1, 0, {3: 9})
        d = Diff(1, 1, 0, {2: 9})  # other page
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)
        assert not a.overlaps(d)


class TestRuns:
    def test_single_run(self):
        assert Diff(0, 0, 0, {3: 1, 4: 1, 5: 1}).runs() == ((3, 3),)

    def test_split_runs(self):
        assert Diff(0, 0, 0, {0: 1, 2: 1, 3: 1}).runs() == ((0, 1), (2, 2))

    def test_wire_bytes(self):
        model = CostModel(diff_run_header_bytes=8, word_bytes=4)
        diff = Diff(0, 0, 0, {0: 1, 2: 1, 3: 1})
        assert diff.wire_bytes(model) == 2 * 8 + 3 * 4

    @given(words_strategy)
    def test_runs_cover_exactly_the_words(self, words):
        runs = Diff(0, 0, 0, words).runs()
        covered = set()
        for start, length in runs:
            covered.update(range(start, start + length))
        assert covered == set(words)

    @given(words_strategy)
    def test_runs_are_maximal_and_disjoint(self, words):
        runs = Diff(0, 0, 0, words).runs()
        for (s1, l1), (s2, _l2) in zip(runs, runs[1:]):
            assert s1 + l1 < s2  # disjoint and non-adjacent


class TestApplyOrder:
    def test_later_diff_wins(self):
        words = {}
        apply_in_order(
            [Diff(0, 0, 0, {0: 1}), Diff(0, 1, 0, {0: 2})],
            words,
        )
        assert words[0] == 2

    @given(words_strategy, words_strategy)
    def test_disjoint_diffs_commute(self, first, second):
        second = {k + 200: v for k, v in second.items()}  # force disjoint
        a, b = Diff(0, 0, 0, first), Diff(0, 1, 0, second)
        one, two = {}, {}
        apply_in_order([a, b], one)
        apply_in_order([b, a], two)
        assert one == two


class TestRunsPatterns:
    """Satellite coverage: run-length encoding over canonical word patterns."""

    def test_single_word(self):
        assert Diff(0, 0, 0, {7: 1}).runs() == ((7, 1),)

    def test_fully_contiguous(self):
        words = {i: i for i in range(4, 12)}
        assert Diff(0, 0, 0, words).runs() == ((4, 8),)

    def test_alternating_words_one_run_each(self):
        words = {i: 1 for i in range(0, 10, 2)}
        assert Diff(0, 0, 0, words).runs() == tuple((i, 1) for i in range(0, 10, 2))

    def test_two_runs_with_gap(self):
        words = {0: 1, 1: 1, 5: 1, 6: 1, 7: 1}
        assert Diff(0, 0, 0, words).runs() == ((0, 2), (5, 3))

    def test_runs_independent_of_insertion_order(self):
        forward = Diff(0, 0, 0, {0: 1, 1: 1, 2: 1})
        backward = Diff(0, 0, 0, {2: 1, 1: 1, 0: 1})
        assert forward.runs() == backward.runs() == ((0, 3),)

    def test_wire_bytes_counts_runs_and_words(self):
        model = CostModel()
        # Alternating pattern: every word is its own run.
        alternating = Diff(0, 0, 0, {i: 1 for i in range(0, 6, 2)})
        assert alternating.wire_bytes(model) == (
            3 * model.diff_run_header_bytes + 3 * model.word_bytes
        )
        # Contiguous pattern: one run header for the same word count.
        contiguous = Diff(0, 0, 0, {i: 1 for i in range(3)})
        assert contiguous.wire_bytes(model) == (
            model.diff_run_header_bytes + 3 * model.word_bytes
        )
