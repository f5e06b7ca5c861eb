"""Tests for the paper-literal Algorithm 1 rendition.

The printed pseudocode is approximate at window boundaries (see the
docstring of ``fuse_cache_algorithm1``); these tests pin down what it
*does* guarantee -- structurally valid pick counts that are close to the
exact top-n -- and document where it deviates from the corrected
:func:`fuse_cache`.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fusecache import (
    fuse_cache,
    fuse_cache_algorithm1,
    selected_multiset,
)
from repro.errors import ConfigurationError

distinct_lists = st.lists(
    st.lists(st.floats(0, 1, allow_nan=False), max_size=25, unique=True).map(
        lambda lst: sorted(lst, reverse=True)
    ),
    min_size=1,
    max_size=5,
)


class TestStructure:
    def test_empty(self):
        assert fuse_cache_algorithm1([], 5) == []

    def test_n_zero(self):
        assert fuse_cache_algorithm1([[3.0, 1.0]], 0) == [0]

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_cache_algorithm1([[1.0]], -1)

    def test_overflow_takes_all(self):
        lists = [[3.0, 1.0], [2.0]]
        assert fuse_cache_algorithm1(lists, 99) == [2, 1]

    def test_terminates_under_ties(self):
        lists = [[1.0] * 20, [1.0] * 20]
        picks = fuse_cache_algorithm1(lists, 10)
        assert sum(picks) == 10

    @given(distinct_lists, st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_pick_counts_always_valid(self, lists, n):
        picks = fuse_cache_algorithm1(lists, n)
        total = sum(len(lst) for lst in lists)
        assert sum(picks) == min(n, total)
        for pick, lst in zip(picks, lists):
            assert 0 <= pick <= len(lst)


class TestApproximation:
    @given(distinct_lists, st.integers(0, 100))
    @example(
        lists=[
            [0.6875, 0.625, 0.5625, 0.5, 0.0],
            [1.0, 0.875, 0.84375, 0.8125, 0.75],
        ],
        n=5,
    )
    @settings(max_examples=150, deadline=None)
    def test_close_to_exact_top_n(self, lists, n):
        """The printed algorithm's selection differs from the exact
        top-n by at most one boundary item per list per commit round --
        bounded here as half of the selection (plus slack for tiny n).
        The pinned example stalls the printed rules until the round cap,
        so it exercises the hottest-first completion.  Compared as
        multisets: a positional ``zip`` would let one extra boundary item
        shift every later element and count the whole tail as
        mismatched."""
        picks = fuse_cache_algorithm1(lists, n)
        selected = Counter(selected_multiset(lists, picks))
        exact = Counter(selected_multiset(lists, fuse_cache(lists, n)))
        mismatches = sum((selected - exact).values())
        total = sum(selected.values())
        assert mismatches <= max(2 * len(lists), total // 2)

    def test_exact_on_single_list(self):
        lst = [float(x) for x in range(50, 0, -1)]
        assert fuse_cache_algorithm1([lst], 20) == [20]

    def test_known_small_example(self):
        lists = [[9.0, 7.0, 5.0], [8.0, 6.0, 4.0, 2.0], [10.0, 3.0]]
        picks = fuse_cache_algorithm1(lists, 5)
        assert sum(picks) == 5
