"""CLS I's verdicts over three corpora, pinned.

Each pin is the number of rejected documents plus a sha256 over every
document's ``(doc_id, is_valid, reasons)``, judged on the ``pymupdf`` text
with the document's page count, as ``route_batch`` judges it.  The corpora
are the default one at seed 7, the 40-document SimPDF pool of
``tests/documents/test_simpdf_pins.py`` and a corpus of 24-page documents,
longer than any default corpus draws.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.cls1 import ValidationClassifier
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.document import TextLayerQuality
from repro.parsers.registry import default_registry
from tests.documents.test_simpdf_pins import POOL_CONFIG

CORPORA = {
    "seed7": CorpusConfig(n_documents=200, seed=7),
    "simpdf_pool": POOL_CONFIG,
    "pages24": CorpusConfig(n_documents=40, seed=7, min_pages=24, max_pages=24),
}

VERDICT_PINS = {
    "seed7": (27, "c2342c94a9f5d530db7842fa248e6c7597798d1a1cef35ba8ffaff55aaa1e270"),
    "simpdf_pool": (3, "77464d96fb17cc548e3f23f78805d75459aee451ef1cb59703125b8052a444e2"),
    "pages24": (3, "01fa9e70a38f3568b47f7d26258f0d6db9d3a53976561c2e37007a7ecfb8ee44"),
}


def verdict_rows(config: CorpusConfig) -> list[list]:
    parser = default_registry().get("pymupdf")
    validator = ValidationClassifier()
    rows = []
    for doc in build_corpus(config):
        verdict = validator.validate(parser.parse(doc).text, n_pages=doc.n_pages)
        rows.append([doc.doc_id, verdict.is_valid, list(verdict.reasons)])
    return rows


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_verdicts_are_unchanged(name):
    rows = verdict_rows(CORPORA[name])
    rejected = sum(not is_valid for _, is_valid, _ in rows)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (rejected, digest) == VERDICT_PINS[name]


def test_no_clean_long_layer_has_too_few_words_per_page():
    """CLS I reads a 6000-character window, and a 24-page document holds
    more: its words per page count the whole text, not the window's words
    spread over every page."""
    parser = default_registry().get("pymupdf")
    validator = ValidationClassifier()
    clean = [
        doc
        for doc in build_corpus(CORPORA["pages24"])
        if doc.text_layer.quality is TextLayerQuality.CLEAN
    ]
    assert len(clean) == 26
    for doc in clean:
        text = parser.parse(doc).text
        assert len(text) > validator.extractor.max_chars
        verdict = validator.validate(text, n_pages=doc.n_pages)
        assert not any(r.startswith("too few words per page") for r in verdict.reasons), doc.doc_id
