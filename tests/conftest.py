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
def default_ft_engine():
    """``build_default_engine(variant="ft")``: the engine every on-demand
    ``adaparse_ft`` run trains (~11 s, once per session)."""
    from repro.core.engine import build_default_engine

    return build_default_engine(variant="ft")


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)
