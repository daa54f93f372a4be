"""Tests for text-statistics and metadata featurisation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.documents.metadata import sample_metadata
from repro.ml.features import TEXT_FEATURE_NAMES, MetadataFeaturizer, TextStatisticsExtractor

CLEAN = (
    "The robust framework demonstrates a significant result in the catalyst analysis "
    "with respect to the polymerization yield across repeated experiments."
)
SCRAMBLED = "Teh rbsout fmrwaoerk dmsnoaretets a sgcniiniaft rsleut in the catlsyat aaynslis"
WHITESPACE_JUNK = "T h e r o b u s t f r a m e w o r k d e m o n s t r a t e s"


class TestTextStatistics:
    def test_feature_vector_shape_and_names(self):
        extractor = TextStatisticsExtractor()
        features = extractor.extract(CLEAN)
        assert features.shape == (len(TEXT_FEATURE_NAMES),)
        assert extractor.n_features == len(TEXT_FEATURE_NAMES)

    def test_empty_text_gives_zero_vector(self):
        assert not TextStatisticsExtractor().extract("").any()

    def test_all_features_finite(self):
        for text in [CLEAN, SCRAMBLED, WHITESPACE_JUNK, "x", "∂∇ΣΣΣ", "123 456"]:
            features = TextStatisticsExtractor().extract(text)
            assert np.all(np.isfinite(features))

    def test_scrambled_text_has_more_vowel_free_words(self):
        extractor = TextStatisticsExtractor()
        index = TEXT_FEATURE_NAMES.index("vowel_free_word_ratio")
        assert extractor.extract(SCRAMBLED)[index] >= extractor.extract(CLEAN)[index]

    def test_whitespace_junk_detected(self):
        extractor = TextStatisticsExtractor()
        index = TEXT_FEATURE_NAMES.index("single_char_word_ratio")
        assert extractor.extract(WHITESPACE_JUNK)[index] > extractor.extract(CLEAN)[index]

    def test_lexicon_hits_higher_for_scientific_text(self):
        extractor = TextStatisticsExtractor()
        index = TEXT_FEATURE_NAMES.index("lexicon_hit_ratio")
        generic = "the weather today is nice and the garden looks lovely in spring"
        assert extractor.extract(CLEAN)[index] > extractor.extract(generic)[index]

    def test_batch_extraction(self):
        matrix = TextStatisticsExtractor().extract_batch([CLEAN, SCRAMBLED])
        assert matrix.shape == (2, len(TEXT_FEATURE_NAMES))
        assert TextStatisticsExtractor().extract_batch([]).shape == (0, len(TEXT_FEATURE_NAMES))


class TestMetadataFeaturizer:
    def test_feature_width_matches_names(self):
        featurizer = MetadataFeaturizer()
        meta = sample_metadata(np.random.default_rng(0), n_pages=6)
        features = featurizer.extract(meta)
        assert features.shape == (featurizer.n_features,)
        assert len(featurizer.feature_names) == featurizer.n_features

    def test_one_hot_encoding(self):
        featurizer = MetadataFeaturizer(fields=("publisher",))
        meta = sample_metadata(np.random.default_rng(1), n_pages=4)
        features = featurizer.extract(meta)
        assert features.sum() == pytest.approx(1.0)
        assert featurizer.feature_names[int(features.argmax())] == f"publisher={meta.publisher}"

    def test_year_features(self):
        featurizer = MetadataFeaturizer(fields=("year",))
        meta = sample_metadata(np.random.default_rng(2), n_pages=4)
        features = featurizer.extract(meta)
        assert features.shape == (3,)

    def test_field_subsets_change_width(self):
        wide = MetadataFeaturizer()
        narrow = MetadataFeaturizer(fields=("publisher", "year"))
        assert narrow.n_features < wide.n_features

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            MetadataFeaturizer(fields=("isbn",))

    def test_batch(self):
        featurizer = MetadataFeaturizer(fields=("publisher", "domain"))
        metas = [sample_metadata(np.random.default_rng(i), n_pages=3) for i in range(4)]
        matrix = featurizer.extract_batch(metas)
        assert matrix.shape == (4, featurizer.n_features)

    def test_title_hash_buckets(self):
        featurizer = MetadataFeaturizer(fields=("title",), hash_buckets=8)
        meta = sample_metadata(np.random.default_rng(3), n_pages=3)
        features = featurizer.extract(meta)
        assert features.shape == (8,)
        assert features.sum() == pytest.approx(1.0)

    def test_every_field_is_pinned(self):
        # A literal pin of all eight fields over 20 records: reading a
        # record's fields must give the bytes its dictionary form gave.
        featurizer = MetadataFeaturizer(
            fields=("publisher", "domain", "subcategory", "year", "pdf_format", "producer",
                    "n_pages", "title")
        )
        metas = [sample_metadata(np.random.default_rng(i), n_pages=3 + i) for i in range(20)]
        matrix = featurizer.extract_batch(metas)
        assert matrix.shape == (20, 121)
        digest = hashlib.sha256(matrix.tobytes()).hexdigest()
        assert digest == "9893d70de42d2bb69e25bc14aba9370a9d27c42bb9a2d4d3f7cc82a1f6c4a87d"
