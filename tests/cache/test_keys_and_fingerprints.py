"""Cache keys: content hashing and parser config fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.keys import (
    CONTENT_HASH_SCHEME,
    CacheKey,
    document_content_hash,
    parse_cache_key,
)
from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.document import TextLayer, TextLayerQuality
from repro.documents.simpdf import SimPdfWriter
from repro.documents.sources import SimPdfDirSource
from repro.parsers.registry import default_registry


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_documents=6, seed=11, min_pages=1, max_pages=3))


class _ScriptedEngine(AdaParseEngine):
    name = "scripted"

    def improvement_scores(self, documents, extracted_texts) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(documents))


class TestContentHash:
    def test_deterministic_and_memoised(self, corpus):
        doc = corpus.documents[0]
        first = document_content_hash(doc)
        assert document_content_hash(doc) == first
        # A structurally identical rebuild hashes identically too.
        rebuilt = build_corpus(
            CorpusConfig(n_documents=6, seed=11, min_pages=1, max_pages=3)
        ).documents[0]
        assert document_content_hash(rebuilt) == first

    def test_distinct_documents_distinct_hashes(self, corpus):
        hashes = {document_content_hash(d) for d in corpus.documents}
        assert len(hashes) == len(corpus.documents)

    def test_text_layer_change_changes_hash(self, corpus):
        doc = corpus.documents[0]
        altered = doc.with_text_layer(
            TextLayer(
                quality=TextLayerQuality.CLEAN,
                page_texts=["changed" for _ in doc.text_layer.page_texts],
                producer="test",
            )
        )
        assert document_content_hash(altered) != document_content_hash(doc)

    def test_exact_case_difference_changes_hash(self, corpus):
        # The dedup fingerprint folds case, but the cache must not: the
        # page texts are hashed exactly, so case-variant layers key apart.
        doc = corpus.documents[0]
        upper = doc.with_text_layer(
            TextLayer(
                quality=doc.text_layer.quality,
                page_texts=[t.upper() for t in doc.text_layer.page_texts],
                producer=doc.text_layer.producer,
            )
        )
        assert document_content_hash(upper) != document_content_hash(doc)


class TestGoldenContentHashes:
    """Pinned keys: a change here invalidates every on-disk cache and ledger.

    The hashes are those of :data:`CONTENT_HASH_SCHEME` 3 (scheme 2 hashed
    each page's plain text where scheme 3 hashes its kinds, texts and LaTeX;
    scheme 1 also hashed the dedup fingerprint of the normalised text, a
    function of the page texts hashed exactly beside it).  They move only
    with a new scheme number, which renames the reference index and so
    orphans the old one.
    """

    def test_the_pins_are_those_of_the_current_scheme(self):
        assert CONTENT_HASH_SCHEME == 3

    def test_born_digital_and_scanned(self):
        documents = build_corpus(
            CorpusConfig(n_documents=12, seed=11, min_pages=1, max_pages=3)
        ).documents
        born_digital, scanned = documents[0], documents[6]
        assert not born_digital.image_layer.is_scanned
        assert scanned.image_layer.is_scanned
        assert document_content_hash(born_digital) == "ff0c42a8710d760c5358fd12509fb24c"
        assert document_content_hash(scanned) == "ea13647a39d4e072e7cf7655a376931a"

    def test_simpdf_round_trip(self, tmp_path):
        # What a directory run keys on: the document as written to disk and
        # read back, not the in-memory original.
        document = build_corpus(
            CorpusConfig(n_documents=12, seed=11, min_pages=1, max_pages=3)
        ).documents[0]
        SimPdfWriter(tmp_path).write(document)
        (loaded,) = SimPdfDirSource(tmp_path).iter_documents()
        assert loaded.doc_id == document.doc_id
        assert document_content_hash(loaded) == "ff0c42a8710d760c5358fd12509fb24c"


class TestCacheKey:
    def test_round_trip(self, corpus):
        key = parse_cache_key(corpus.documents[0], "abcd1234")
        assert CacheKey.parse(str(key)) == key

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError):
            CacheKey.parse("no-separator")

    def test_shard_index_stable_and_bounded(self, corpus):
        # Shard selection lives in one place: the disk store.
        from repro.cache import ShardedDiskStore

        store = ShardedDiskStore.__new__(ShardedDiskStore)
        store.n_shards = 16
        raw = str(parse_cache_key(corpus.documents[0], "abcd1234"))
        assert 0 <= store.shard_index_for(raw) < 16
        assert store.shard_index_for(raw) == store.shard_index_for(raw)


#: ``config_fingerprint()`` of every parser in ``default_registry()``.  A
#: change here re-keys every cached parse of that parser.
PINNED_PARSER_FINGERPRINTS = {
    "marker": "ccef00e1cb6ca3d1bf724536d6cd5c67",
    "nougat": "ce4f80263539eeacdf05e6051f922a85",
    "pymupdf": "6933b1d519e5617280be9e0bcd0b2c91",
    "pypdf": "6066db2f16f1fb3e65e555d5273c5dd7",
    "grobid": "4f7a3e40d0841056f23f6c1505a48675",
    "tesseract": "c4543d446ace7343a60e545f7e1e0dc1",
}


class TestConfigFingerprints:
    def test_every_default_parser_fingerprint_is_pinned(self):
        registry = default_registry()
        assert {
            name: registry.get(name).config_fingerprint() for name in registry.names
        } == PINNED_PARSER_FINGERPRINTS

    def test_base_parser_fingerprint_stable_across_instances(self):
        a = default_registry().get("pymupdf").config_fingerprint()
        b = default_registry().get("pymupdf").config_fingerprint()
        assert a == b

    def test_parsers_have_distinct_fingerprints(self):
        registry = default_registry()
        fingerprints = {p.config_fingerprint() for p in registry}
        assert len(fingerprints) == len(registry)

    def test_version_bump_changes_fingerprint(self):
        parser = default_registry().get("pymupdf")
        before = parser.config_fingerprint()
        original = parser.version
        try:
            type(parser).version = original + ".post1"
            assert parser.config_fingerprint() != before
        finally:
            type(parser).version = original

    def test_repeated_calls_hold_the_pin_and_an_engine_tracks_its_embeddings(self):
        """A base parser's fingerprint is computed once per instance; an
        engine's hashes its weights on every call, because they can change
        in place."""
        from repro.core.cls3 import ParserSelector
        from repro.ml.quality_model import ParserQualityPredictor

        registry = default_registry()
        parser = registry.get("pymupdf")
        pinned = PINNED_PARSER_FINGERPRINTS["pymupdf"]
        assert [parser.config_fingerprint() for _ in range(3)] == [pinned] * 3
        selector = ParserSelector(
            ParserQualityPredictor(registry.names, backend="fasttext"),
            default_parser="pymupdf",
        )
        engine = AdaParseEngine(registry, selector=selector)
        before = engine.config_fingerprint()
        assert engine.config_fingerprint() == before
        selector.predictor.fasttext.embeddings[0, 0] += 0.5
        assert engine.config_fingerprint() != before
        assert parser.config_fingerprint() == pinned

    def test_engine_fingerprint_sensitive_to_alpha(self):
        registry = default_registry()
        engine = _ScriptedEngine(registry, AdaParseConfig(alpha=0.05, batch_size=16))
        sibling = engine.with_overrides(alpha=0.10)
        assert engine.config_fingerprint() != sibling.config_fingerprint()
        assert (
            engine.config_fingerprint()
            == _ScriptedEngine(
                registry, AdaParseConfig(alpha=0.05, batch_size=16)
            ).config_fingerprint()
        )

    def test_engine_fingerprint_sensitive_to_improvement_classifier(self):
        import numpy as np

        from repro.core.cls2 import ImprovementClassifier
        from repro.documents.metadata import DocumentMetadata

        registry = default_registry()

        def make_engine(seed: int) -> _ScriptedEngine:
            rng = np.random.default_rng(seed)
            classifier = ImprovementClassifier()
            metadatas = [
                DocumentMetadata(
                    title=f"doc {i}",
                    publisher="acme",
                    domain="physics",
                    subcategory="optics",
                    year=2000 + i,
                    pdf_format="1.7",
                    producer="latex",
                    n_pages=4,
                )
                for i in range(12)
            ]
            classifier.fit(
                metadatas, registry.names, rng.uniform(0.0, 1.0, size=(12, len(registry)))
            )
            return _ScriptedEngine(registry, improvement_classifier=classifier)

        assert make_engine(1).config_fingerprint() == make_engine(1).config_fingerprint()
        # Retraining CLS II (different data -> different weights) re-keys.
        assert make_engine(1).config_fingerprint() != make_engine(2).config_fingerprint()

    def test_engine_fingerprint_sensitive_to_selector_weights(self):
        from repro.core.cls3 import ParserSelector
        from repro.ml.quality_model import ParserQualityPredictor

        registry = default_registry()
        names = registry.names

        def make_selector() -> ParserSelector:
            return ParserSelector(
                ParserQualityPredictor(names, backend="fasttext"),
                default_parser="pymupdf",
            )

        a, b = make_selector(), make_selector()
        assert a.config_fingerprint() == b.config_fingerprint()
        b.predictor.fasttext.head_bias = b.predictor.fasttext.head_bias + 0.5
        assert a.config_fingerprint() != b.config_fingerprint()
