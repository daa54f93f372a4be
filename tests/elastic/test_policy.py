"""Unit tests of the pure placement functions (no sockets, no clocks)."""

from __future__ import annotations

import pytest

from repro.elastic.policy import (
    HEAVYWEIGHT_PARSERS,
    coerce_tag,
    coerce_tags,
    constraints_for_parser,
    satisfies,
    tags_from_capabilities,
)


class TestTags:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", True),
            ("YES", True),
            ("off", False),
            ("8", 8),
            (" large ", "large"),
            (True, True),
            (3, 3),
        ],
    )
    def test_coerce_tag(self, raw, expected):
        assert coerce_tag(raw) == expected

    def test_coerce_tags_none(self):
        assert coerce_tags(None) == {}

    def test_tags_from_capabilities_folds_in_implicit(self):
        tags = tags_from_capabilities(
            {"cache": True, "slots": 4, "tags": {"gpu": "true"}}
        )
        assert tags == {"gpu": True, "cache": True, "slots": 4}

    def test_explicit_tags_win_over_implicit(self):
        tags = tags_from_capabilities({"cache": True, "tags": {"cache": "false"}})
        assert tags["cache"] is False


class TestSatisfies:
    def test_empty_constraints_always_satisfied(self):
        assert satisfies({}, None)
        assert satisfies({}, {})

    def test_boolean_constraint_is_truthiness(self):
        assert satisfies({"gpu": True}, {"gpu": True})
        assert not satisfies({"gpu": False}, {"gpu": True})
        assert not satisfies({}, {"gpu": True})
        assert satisfies({}, {"gpu": False})

    def test_numeric_constraint_is_minimum(self):
        assert satisfies({"slots": 8}, {"slots": 4})
        assert satisfies({"slots": 4}, {"slots": 4})
        assert not satisfies({"slots": 2}, {"slots": 4})
        assert not satisfies({}, {"slots": 1})

    def test_numeric_constraint_refuses_a_string_tag(self):
        assert not satisfies({"slots": "many"}, {"slots": 1})
        assert not satisfies({"cpu_class": "large"}, {"cpu_class": 2})

    def test_fractional_minimum_compares_numerically(self):
        assert satisfies({"mem_gb": 16}, {"mem_gb": 7.5})
        assert not satisfies({"mem_gb": 4}, {"mem_gb": 7.5})

    def test_string_constraint_is_equality(self):
        assert satisfies({"cpu_class": "large"}, {"cpu_class": "large"})
        assert not satisfies({"cpu_class": "small"}, {"cpu_class": "large"})

    def test_wire_strings_normalise_before_comparison(self):
        # Tags arrive as CLI/wire strings; "true" and True must match.
        assert satisfies({"gpu": "true"}, {"gpu": True})
        assert satisfies({"slots": "8"}, {"slots": 4})


class TestConstraintsForParser:
    def test_heavyweight_parsers_want_gpu(self):
        for name in HEAVYWEIGHT_PARSERS:
            assert constraints_for_parser(name) == {"gpu": True}

    def test_lightweight_parsers_run_anywhere(self):
        assert constraints_for_parser("pymupdf") == {}
        assert constraints_for_parser("pypdf") == {}
