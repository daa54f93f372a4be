"""Shared pytest fixtures.

Expensive objects (corpora, parser registries, labelled datasets) are built
once per session at deliberately small sizes so the whole suite stays fast
while still exercising real end-to-end paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.documents.corpus import Corpus, CorpusConfig, build_corpus, build_document
from repro.documents.document import SciDocument
from repro.parsers.registry import ParserRegistry, default_registry


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """A 12-document corpus shared across tests."""
    return build_corpus(CorpusConfig(n_documents=12, seed=101, min_pages=3, max_pages=8))


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """A 5-document corpus for the most expensive integration tests."""
    return build_corpus(CorpusConfig(n_documents=5, seed=77, min_pages=3, max_pages=5))


@pytest.fixture(scope="session")
def registry() -> ParserRegistry:
    """The default parser registry (six simulated parsers)."""
    return default_registry()


@pytest.fixture(scope="session")
def sample_document() -> SciDocument:
    """One deterministic document."""
    return build_document(0, CorpusConfig(n_documents=1, seed=404, min_pages=4, max_pages=6))


@pytest.fixture(scope="session")
def _default_ft_training():
    """``build_default_engine(variant="ft")`` and the dataset it labelled on
    the way: one training run per session (~6 s), observed rather than
    re-done — the labelling call is wrapped so its result can be pinned."""
    from repro.core import training
    from repro.core.engine import build_default_engine

    build_quality_dataset = training.build_quality_dataset
    labelled = []

    def labelling(*args, **kwargs):
        labelled.append(build_quality_dataset(*args, **kwargs))
        return labelled[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "build_quality_dataset", labelling)
        engine = build_default_engine(variant="ft")
    (dataset,) = labelled
    return engine, dataset


@pytest.fixture(scope="session")
def default_ft_engine(_default_ft_training):
    """``build_default_engine(variant="ft")``: the engine every on-demand
    ``adaparse_ft`` run trains."""
    return _default_ft_training[0]


@pytest.fixture(scope="session")
def default_ft_dataset(_default_ft_training):
    """The labelled 80-document corpus ``default_ft_engine`` was trained on."""
    return _default_ft_training[1]


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)
