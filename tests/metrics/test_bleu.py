"""Tests for BLEU."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.metrics.bleu import (
    BleuReference,
    BleuStatistics,
    bleu_score,
)
from repro.metrics.tokenize import ngrams, word_tokenize

REFERENCE = (
    "the gravitational force between two masses is directly proportional to the product "
    "of their masses and inversely proportional to the square of the distance between them"
)
SCRAMBLED = (
    "the gravitational force inversely masses the proportional distance between two products "
    "and is directly proportional to the square of objects"
)

words = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "eps"]), min_size=1, max_size=40)


class TestBasicProperties:
    def test_identity_is_one(self):
        assert bleu_score(REFERENCE, REFERENCE) == pytest.approx(1.0)

    def test_empty_candidate_is_zero(self):
        assert bleu_score("", REFERENCE) == 0.0

    def test_empty_reference_is_zero(self):
        assert bleu_score(REFERENCE, "") == 0.0

    def test_range(self):
        assert 0.0 <= bleu_score(SCRAMBLED, REFERENCE) <= 1.0

    def test_scrambled_text_scores_lower_than_identity(self):
        assert bleu_score(SCRAMBLED, REFERENCE) < 0.6

    def test_paper_example_scores_moderately(self):
        # The paper quotes BLEU ≈ 0.32 for this pair; the exact value depends
        # on smoothing/normalisation choices, but it must be mid-range: clearly
        # above garbage, clearly below a faithful parse.
        score = bleu_score(SCRAMBLED, REFERENCE)
        assert 0.1 < score < 0.6

    def test_case_insensitive(self):
        assert bleu_score(REFERENCE.upper(), REFERENCE) == pytest.approx(1.0)

    def test_word_dropping_reduces_score(self):
        words_list = REFERENCE.split()
        truncated = " ".join(words_list[: len(words_list) // 2])
        assert bleu_score(truncated, REFERENCE) < bleu_score(REFERENCE, REFERENCE)

    @settings(max_examples=50, deadline=None)
    @given(words, words)
    def test_always_in_unit_interval(self, cand, ref):
        assert 0.0 <= bleu_score(" ".join(cand), " ".join(ref)) <= 1.0


class TestStatistics:
    def test_brevity_penalty_applied(self):
        stats = BleuStatistics(matches=(5, 4, 3, 2), totals=(5, 4, 3, 2), candidate_length=5, reference_length=10)
        assert stats.score() < 1.0

    @pytest.mark.parametrize(
        "score",
        [
            lambda: bleu_score("a b c", "a b c", max_n=0),
            lambda: bleu_score("a b c", "a b c", max_n=-1),
            lambda: BleuReference("a b c", max_n=0),
        ],
        ids=["bleu_score-0", "bleu_score-negative", "reference-0"],
    )
    def test_an_order_below_one_is_refused(self, score):
        # It used to divide by zero when scoring.
        with pytest.raises(ValueError, match="max_n must be positive"):
            score()


# ---------------------------------------------------------------------- #
# Exactness: the integer n-gram counts against the Counter form they replaced
# ---------------------------------------------------------------------- #
def clipped_matches(candidate: Counter, reference: Counter) -> int:
    """Candidate n-grams found in the reference, each at most as often as it has them."""
    return sum(min(count, reference[gram]) for gram, count in candidate.items())


def reference_statistics(candidate: str, reference: str, max_n: int) -> BleuStatistics:
    """``BleuReference.statistics`` as it was: an n-gram ``Counter`` per order."""
    ref_tokens, tokens = word_tokenize(reference), word_tokenize(candidate)
    return BleuStatistics(
        matches=tuple(
            clipped_matches(ngrams(tokens, n), ngrams(ref_tokens, n)) for n in range(1, max_n + 1)
        ),
        totals=tuple(max(0, len(tokens) - n + 1) for n in range(1, max_n + 1)),
        candidate_length=len(tokens),
        reference_length=len(ref_tokens),
    )


# Dotted capital I lowercases to two code points; the sigmas lowercase by
# context.  The separators include whitespace beyond ASCII (no-break, em and
# ideographic space, the file separator, next line) and two code points that
# look like whitespace but are not (zero-width and Mongolian vowel separator).
FEW_WORDS = st.lists(
    st.sampled_from(["a", "b", "A", "\u0130", "i\u0307", "\u03a3", "\u03c2", "\u03c3", "x y", "z"]),
    max_size=30,
).map(" ".join)
SEPARATED = st.lists(
    st.text(alphabet="ab\u0130\u03a3 \t\n\u00a0\u2003\u3000\x1c\x85\u200b\u180e", max_size=4),
    max_size=12,
).map(" ".join)
ANY_TEXT = st.one_of(st.just(""), FEW_WORDS, SEPARATED, st.text(max_size=60))


class TestStatisticsEqualTheCounterForm:
    @settings(max_examples=400, deadline=None)
    @given(ANY_TEXT, ANY_TEXT, st.integers(1, 6))
    @example("", "", 4)
    @example("a b c", "", 4)
    @example("", "a b c", 4)
    @example("q r s t", "a b c d", 4)  # no candidate token in the reference
    @example("a b a b a b", "a b a b", 4)  # clipped at every order
    @example("\u0130stanbul \u0130STANBUL i\u0307stanbul", "i\u0307stanbul \u0130stanbul", 2)
    @example("x y x\u3000y\x1cz\u2003", "x\u00a0y  x y z", 3)
    def test_every_order_equals_clipped_counter_matches(self, candidate, reference, max_n):
        assert BleuReference(reference, max_n=max_n).statistics(candidate) == (
            reference_statistics(candidate, reference, max_n)
        )

    def test_one_reference_scores_many_candidates(self):
        reference = BleuReference(REFERENCE)
        for candidate in (SCRAMBLED, REFERENCE, "", REFERENCE.upper(), "the the the the"):
            assert reference.statistics(candidate) == reference_statistics(candidate, REFERENCE, 4)
