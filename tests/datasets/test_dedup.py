"""Tests of exact and near-duplicate detection (MinHash + LSH)."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dedup import (
    LshIndex,
    MinHasher,
    NearDuplicateDetector,
    content_fingerprint,
    exact_duplicate_groups,
    jaccard_similarity,
    normalize_for_dedup,
    word_shingles,
)

from tests.datasets.conftest import make_record

BASE_TEXT = (
    "Adaptive parsing routes each document to the parser most likely to produce "
    "accurate text while respecting a strict compute budget across the campaign. "
    "Simple documents are handled by fast extraction and difficult documents are "
    "escalated to the vision transformer that reads rendered page images directly."
)


#: The whitespace and case-mapping edge cases of ``normalize_for_dedup``:
#: the separators ``\\s`` and ``str.split`` must agree on, and letters whose
#: lower-casing changes length.
_EDGE_CHARACTERS = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000İẞ \t\n\r\x0b\x0caB"


def _reference_normalize(text: str) -> str:
    """The regex form every existing key and fingerprint was computed with."""
    return re.sub(r"\s+", " ", text.strip().lower())


class TestNormalisation:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from(_EDGE_CHARACTERS), st.characters())))
    def test_equals_regex_reference(self, text):
        assert normalize_for_dedup(text) == _reference_normalize(text)

    def test_equals_regex_reference_on_every_whitespace_code_point(self):
        for code_point in range(0x110000):
            char = chr(code_point)
            if char.isspace() or char.lower() != char:
                text = f" A{char}{char}b{char}"
                assert normalize_for_dedup(text) == _reference_normalize(text), hex(code_point)

    def test_golden_fingerprints(self):
        # Pinned: dedup fingerprints feed every cache key.
        assert content_fingerprint("  Hello \n WORLD \t") == 17270730657402447456
        assert content_fingerprint("Straẞe İstanbul\u3000\x1cend") == 12781365953716382580

    def test_case_and_whitespace_folded(self):
        assert normalize_for_dedup("  Hello \n WORLD \t") == "hello world"

    def test_idempotent(self):
        once = normalize_for_dedup("A  b\nC")
        assert normalize_for_dedup(once) == once

    def test_fingerprint_invariant_to_formatting(self):
        assert content_fingerprint("Hello   world") == content_fingerprint("hello\nworld")

    def test_fingerprint_differs_for_different_content(self):
        assert content_fingerprint("alpha beta") != content_fingerprint("alpha gamma")


class TestExactDuplicates:
    def test_groups_only_real_duplicates(self):
        texts = ["a b c", "A  b\nc", "different text", "a b c"]
        groups = exact_duplicate_groups(texts)
        assert len(groups) == 1
        assert sorted(groups[0]) == [0, 1, 3]

    def test_no_duplicates(self):
        assert exact_duplicate_groups(["one", "two", "three"]) == []


class TestShingles:
    def test_shingle_count(self):
        text = " ".join(f"w{i}" for i in range(10))
        assert len(word_shingles(text, k=5)) == 6

    def test_short_text_produces_single_shingle(self):
        assert len(word_shingles("only three words", k=5)) == 1

    def test_empty_text(self):
        assert word_shingles("", k=5) == set()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            word_shingles("a b c", k=0)

    def test_jaccard_bounds(self):
        a = word_shingles(BASE_TEXT)
        assert jaccard_similarity(a, a) == 1.0
        assert jaccard_similarity(a, set()) == 0.0
        assert jaccard_similarity(set(), set()) == 1.0


class TestMinHash:
    def test_identical_sets_have_identical_signatures(self):
        hasher = MinHasher(n_hashes=64)
        shingles = word_shingles(BASE_TEXT)
        assert np.array_equal(hasher.signature(shingles), hasher.signature(set(shingles)))

    def test_signature_length(self):
        hasher = MinHasher(n_hashes=48)
        assert hasher.signature(word_shingles(BASE_TEXT)).shape == (48,)

    def test_estimate_close_to_true_jaccard(self):
        hasher = MinHasher(n_hashes=256)
        words = BASE_TEXT.split()
        text_a = " ".join(words)
        # Replace the second half: overlap of shingles drops well below 1.
        text_b = " ".join(words[: len(words) // 2] + ["replacement"] * (len(words) // 2))
        shingles_a, shingles_b = word_shingles(text_a), word_shingles(text_b)
        truth = jaccard_similarity(shingles_a, shingles_b)
        estimate = np.mean(hasher.signature(shingles_a) == hasher.signature(shingles_b))
        assert abs(truth - estimate) < 0.15

    @given(overlap=st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_estimate_tracks_overlap_monotonically_on_average(self, overlap):
        """More shared words ⇒ the MinHash estimate should not behave wildly."""
        hasher = MinHasher(n_hashes=128)
        shared = [f"shared{i}" for i in range(overlap)]
        a = word_shingles(" ".join(shared + [f"a{i}" for i in range(30 - overlap + 5)]), k=3)
        b = word_shingles(" ".join(shared + [f"b{i}" for i in range(30 - overlap + 5)]), k=3)
        truth = jaccard_similarity(a, b)
        estimate = np.mean(hasher.signature(a) == hasher.signature(b))
        assert 0.0 <= estimate <= 1.0
        assert abs(truth - estimate) < 0.35


class TestLshIndex:
    def test_near_identical_texts_become_candidates(self):
        hasher = MinHasher()
        index = LshIndex()
        variant = BASE_TEXT.replace("difficult", "hard")
        index.add("a", hasher.signature(word_shingles(BASE_TEXT)))
        index.add("b", hasher.signature(word_shingles(variant)))
        index.add("c", hasher.signature(word_shingles("completely unrelated short note " * 10)))
        pairs = index.candidate_pairs()
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs and ("b", "c") not in pairs

    def test_duplicate_key_rejected(self):
        hasher = MinHasher()
        index = LshIndex()
        signature = hasher.signature(word_shingles(BASE_TEXT))
        index.add("a", signature)
        with pytest.raises(KeyError):
            index.add("a", signature)

    def test_invalid_band_configuration(self):
        with pytest.raises(ValueError):
            LshIndex(n_hashes=96, n_bands=7)

    def test_wrong_signature_length_rejected(self):
        index = LshIndex(n_hashes=32, n_bands=8)
        with pytest.raises(ValueError):
            index.add("a", np.zeros(16, dtype=np.int64))


class TestNearDuplicateDetector:
    def test_exact_duplicates_collapse_to_best_quality(self):
        records = [
            make_record(doc_id="low", text=BASE_TEXT, quality=0.4),
            make_record(doc_id="high", text=BASE_TEXT, quality=0.9),
            make_record(doc_id="other", text="entirely different content " * 20, quality=0.5),
        ]
        report = NearDuplicateDetector().find_duplicates(records)
        kept_ids = {r.doc_id for r in report.kept}
        assert kept_ids == {"high", "other"}
        assert {r.doc_id for r in report.dropped} == {"low"}
        assert report.duplicate_rate == pytest.approx(1 / 3)

    def test_near_duplicates_detected(self):
        variant = BASE_TEXT.replace("campaign", "run")
        records = [
            make_record(doc_id="orig", text=BASE_TEXT * 2, quality=0.8),
            make_record(doc_id="copy", text=(BASE_TEXT * 2).replace("campaign", "run"), quality=0.7),
            make_record(doc_id="unrelated", text="unrelated material " * 50, quality=0.9),
        ]
        report = NearDuplicateDetector(similarity_threshold=0.7).find_duplicates(records)
        assert {r.doc_id for r in report.dropped} == {"copy"}
        assert len(report.clusters) == 1
        assert variant  # silence unused warning

    def test_distinct_documents_all_kept(self, small_corpus):
        records = [
            make_record(doc_id=doc.doc_id, text="\n".join(doc.ground_truth_pages()), quality=0.9)
            for doc in small_corpus
        ]
        report = NearDuplicateDetector().find_duplicates(records)
        assert len(report.kept) == len(records)
        assert report.dropped == []

    def test_unknown_quality_ranks_below_known(self):
        records = [
            make_record(doc_id="unknown", text=BASE_TEXT, quality=None),
            make_record(doc_id="known", text=BASE_TEXT, quality=0.2),
        ]
        report = NearDuplicateDetector().find_duplicates(records)
        assert {r.doc_id for r in report.kept} == {"known"}

    def test_duplicate_doc_ids_rejected(self):
        records = [make_record(doc_id="same"), make_record(doc_id="same")]
        with pytest.raises(ValueError, match="duplicate doc_id"):
            NearDuplicateDetector().find_duplicates(records)

    def test_empty_input(self):
        report = NearDuplicateDetector().find_duplicates([])
        assert report.n_input == 0
        assert report.summary()["n_clusters"] == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            NearDuplicateDetector(similarity_threshold=0.0)
