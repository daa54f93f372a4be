"""Tests for tokenisation, accepted tokens, win-rate bookkeeping and bundles."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.accepted_tokens import accepted_token_rate, accepted_tokens
from repro.metrics.bundle import evaluate_parse
from repro.metrics.bleu import BleuReference
from repro.metrics.tokenize import character_tokens, ngrams, normalize_text, word_tokenize
from repro.metrics.winrate import (
    PairwiseOutcome,
    WinRateTally,
    consensus_rate,
)


def regex_word_tokenize(text: str, lowercase: bool = True) -> list[str]:
    """``word_tokenize`` as it was: collapse, strip, lowercase, then find the runs."""
    if not text:
        return []
    return re.findall(r"[^\s]+", normalize_text(text, lowercase=lowercase))


class TestTokenize:
    def test_normalisation_collapses_whitespace(self):
        assert normalize_text("a  b\n\nc") == "a b c"

    def test_lowercasing_optional(self):
        assert normalize_text("AbC", lowercase=False) == "AbC"

    def test_word_tokenize(self):
        assert word_tokenize("Hello, World!  twice") == ["hello,", "world!", "twice"]

    def test_empty(self):
        assert word_tokenize("") == []

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_equals_the_regex_form_at_every_code_point(self, lowercase):
        # Each code point sits between two capitals, so one that either form
        # took for whitespace, or that lowercased to whitespace, splits a word
        # in one form and not in the other.  Final sigma lowercases by context.
        for plane in range(0x11):
            text = "".join(f"Q{chr(c)}\u03a3" for c in range(plane << 16, (plane + 1) << 16))
            assert word_tokenize(text, lowercase) == regex_word_tokenize(text, lowercase), plane

    def test_ngrams_counts(self):
        grams = ngrams(["a", "b", "a", "b"], 2)
        assert grams[("a", "b")] == 2
        assert grams[("b", "a")] == 1

    def test_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    def test_clipping(self):
        assert BleuReference("a", max_n=1).statistics("a a a").matches == (1,)

    def test_character_tokens_keep_case_by_default(self):
        assert character_tokens("  Nougat\tOCR\n\nText ") == "Nougat OCR Text"
        assert character_tokens("Nougat OCR", lowercase=True) == "nougat ocr"

    @given(st.text())
    def test_character_tokens_join_the_whitespace_split_words(self, text):
        assert character_tokens(text) == " ".join(text.split())
        assert character_tokens(text).split() == word_tokenize(text, lowercase=False)


class TestAcceptedTokens:
    def test_all_above_threshold(self):
        assert accepted_token_rate([0.9, 0.8], [100, 200], threshold=0.5) == 1.0

    def test_none_above_threshold(self):
        assert accepted_token_rate([0.1, 0.2], [100, 200], threshold=0.5) == 0.0

    def test_token_weighting(self):
        rate = accepted_token_rate([0.9, 0.1], [100, 300], threshold=0.5)
        assert rate == pytest.approx(0.25)

    def test_absolute_count(self):
        assert accepted_tokens([0.9, 0.1], [100, 300], threshold=0.5) == 100

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accepted_token_rate([0.9], [100, 200])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20))
    def test_rate_in_unit_interval(self, scores):
        counts = [10] * len(scores)
        assert 0.0 <= accepted_token_rate(scores, counts) <= 1.0


class TestWinRate:
    def test_winner_must_be_participant(self):
        with pytest.raises(ValueError):
            PairwiseOutcome("d", "a", "b", winner="c")

    def test_tally_basic(self):
        tally = WinRateTally()
        tally.add(PairwiseOutcome("d1", "a", "b", "a"))
        tally.add(PairwiseOutcome("d2", "a", "b", "b"))
        tally.add(PairwiseOutcome("d3", "a", "b", None))
        assert tally.win_rate("a") == pytest.approx(0.5)
        assert tally.win_rate("b") == pytest.approx(0.5)
        assert tally.decisiveness() == pytest.approx(2 / 3)

    def test_unseen_parser_zero(self):
        tally = WinRateTally()
        assert tally.win_rate("nobody") == 0.0

    def test_consensus(self):
        judgements = {
            ("p1", "a", "b"): ["a", "a"],
            ("p2", "a", "b"): ["a", "b"],
            ("p3", "a", "b"): ["b"],  # single judgement: excluded
        }
        assert consensus_rate(judgements) == pytest.approx(0.5)

    def test_consensus_no_repeats(self):
        assert consensus_rate({("p", "a", "b"): ["a"]}) == 1.0


class TestBundle:
    def test_perfect_parse(self):
        pages = ["the robust framework demonstrates a significant result " * 5] * 2
        bundle = evaluate_parse(pages, pages)
        assert bundle.coverage == 1.0
        assert bundle.bleu == pytest.approx(1.0)
        assert bundle.rouge == pytest.approx(1.0)
        assert bundle.car == pytest.approx(1.0)
        assert bundle.n_ground_truth_tokens > 0

    def test_dropped_page_lowers_coverage_and_bleu(self):
        pages = ["the robust framework demonstrates a significant result " * 5] * 2
        parsed = [pages[0], ""]
        bundle = evaluate_parse(pages, parsed)
        assert bundle.coverage == pytest.approx(0.5)
        assert bundle.bleu < 1.0

    def test_as_dict_keys(self):
        pages = ["some text here"]
        bundle = evaluate_parse(pages, pages)
        assert set(bundle.as_dict()) == {"coverage", "bleu", "rouge", "car", "n_ground_truth_tokens"}
