"""Tests for the edit-distance implementations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.levenshtein import (
    levenshtein_distance,
    levenshtein_distance_reference,
)

short_text = st.text(alphabet="abcde ", max_size=30)


class TestKnownDistances:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("hyperthyroidism", "hypothyroidism", 2),
            ("pH", "Ph", 2),
        ],
    )
    def test_examples(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_symmetry(self):
        assert levenshtein_distance("abcdef", "azced") == levenshtein_distance("azced", "abcdef")


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(short_text, short_text)
    def test_matches_reference_implementation(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance_reference(a, b)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(short_text, short_text)
    def test_bounds(self, a, b):
        d = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @settings(max_examples=50, deadline=None)
    @given(short_text)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @settings(max_examples=50, deadline=None)
    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)
