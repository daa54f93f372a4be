"""How the corpus generator draws: through one stream, and rarely from numpy.

Two contracts beside the golden digests.  *Ownership*: a function handed a
bare numpy Generator leaves it where numpy would have, so callers that keep
drawing from it (``ml.pretrain`` runs one text generator per domain down one
Generator) see the same values as a caller that owns the stream.  *Count*: a
document enters numpy a bounded number of times — block refills, and
hand-overs for the vectorised noise channels — not once per word.  Counts,
not seconds: a regression to per-word numpy calls fails on any host.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.documents import corpus
from repro.documents.corpus import (
    CorpusConfig,
    build_document,
    build_image_layer,
    build_text_layer,
    sample_text_layer_quality,
)
from repro.documents.document import TextLayerQuality
from repro.documents.metadata import sample_metadata
from repro.documents.textgen import ScientificTextGenerator, generate_generic_sentences
from repro.utils.rng import DrawStream, derive_seed


class TestOwnership:
    def test_text_generators_sharing_a_bare_generator_continue_each_other(self):
        rng = np.random.default_rng(3)
        borrowed = [
            ScientificTextGenerator("physics", rng).sentence(),
            rng.random(),
            ScientificTextGenerator("biology", rng).paragraph(2),
            int(rng.integers(0, 1000)),
            ScientificTextGenerator("chemistry", rng).document_pages("T", 3)[-1].ground_truth_text(),
            generate_generic_sentences(rng, 3),
            rng.random(),
        ]
        draws = DrawStream(np.random.default_rng(3))
        owned = [
            ScientificTextGenerator("physics", draws).sentence(),
            draws.random(),
            ScientificTextGenerator("biology", draws).paragraph(2),
            draws.integers(0, 1000),
            ScientificTextGenerator("chemistry", draws).document_pages("T", 3)[-1].ground_truth_text(),
            generate_generic_sentences(draws, 3),
            draws.random(),
        ]
        assert borrowed == owned

    def test_document_parts_hand_a_bare_generator_back(self):
        pages = build_document(0, CorpusConfig(n_documents=1, seed=9)).pages[:2]

        def parts(rng, scalar):
            metadata = sample_metadata(rng, n_pages=5)
            image = build_image_layer("scanner_firmware", 1999, 0.5, rng)
            out = [metadata, scalar(), image, scalar(), sample_text_layer_quality("ms_word", rng)]
            for quality in TextLayerQuality:
                out += [build_text_layer(pages, quality, "ms_word", image, rng).page_texts, scalar()]
            return out

        rng = np.random.default_rng(21)
        draws = DrawStream(np.random.default_rng(21))
        assert parts(rng, rng.random) == parts(draws, draws.random)


class TestNumpyEntryCount:
    def test_a_document_enters_numpy_per_block_not_per_word(self, monkeypatch):
        calls: Counter[str] = Counter()

        def counted(name, function):
            def entered(self, *args, **kwargs):
                calls[name] += 1
                return function(self, *args, **kwargs)

            return entered

        class CountingPCG64(np.random.PCG64):
            pass

        class CountingGenerator(np.random.Generator):
            pass

        for counting, base in ((CountingPCG64, np.random.PCG64), (CountingGenerator, np.random.Generator)):
            for name in dir(base):
                if not name.startswith("_") and callable(getattr(base, name)):
                    setattr(counting, name, counted(f"{base.__name__}.{name}", getattr(base, name)))
        state = np.random.PCG64.state
        CountingPCG64.state = property(
            counted("PCG64.state", state.__get__), counted("PCG64.state=", state.__set__)
        )

        config = CorpusConfig(n_documents=8)
        reference = [build_document(i, config) for i in range(config.n_documents)]
        monkeypatch.setattr(
            corpus,
            "rng_from",
            lambda seed, *path: CountingGenerator(CountingPCG64(derive_seed(seed, *path))),
        )
        for index, expected in enumerate(reference):
            before = sum(calls.values())
            assert build_document(index, config) == expected
            entered = sum(calls.values()) - before
            if expected.text_layer.quality in (TextLayerQuality.CLEAN, TextLayerQuality.MISSING):
                # Block refills only (the numpy-call generator: ~330 a page).
                assert entered <= 8 + 2 * expected.n_pages, (index, entered)
        assert calls["PCG64.random_raw"] > 0  # the wrappers are the ones being called
        assert "Generator.choice" not in calls
        # 272 at the time of writing, 189 of them the noise channels of the one
        # OCR-derived document; the numpy-call generator entered 26,047 times.
        assert sum(calls.values()) <= 400, calls
