"""Tests for :func:`repro.utils.batching.chunked`, the parsers' batch splitter."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.utils.batching import chunked


class TestChunked:
    def test_exact_multiple(self):
        assert list(chunked(range(6), 3)) == [[0, 1, 2], [3, 4, 5]]

    def test_short_last_batch(self):
        assert list(chunked(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_empty_input_yields_no_batch(self):
        assert list(chunked([], 4)) == []

    def test_size_larger_than_input_is_one_batch(self):
        assert list(chunked("abc", 10)) == [["a", "b", "c"]]

    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_size_rejected(self, size):
        with pytest.raises(ValueError, match="batch size must be positive"):
            list(chunked([1, 2], size))

    def test_consumes_the_input_lazily(self):
        batches = chunked(itertools.count(), 2)
        assert next(batches) == [0, 1]
        assert next(batches) == [2, 3]

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=8))
    def test_batches_concatenate_to_the_input_and_only_the_last_is_short(self, items, size):
        batches = list(chunked(items, size))
        assert [item for batch in batches for item in batch] == items
        assert all(len(batch) == size for batch in batches[:-1])
        assert all(1 <= len(batch) <= size for batch in batches)
