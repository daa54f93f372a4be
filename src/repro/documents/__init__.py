"""Synthetic scientific-document substrate.

The paper benchmarks parsers on 25 000 real scientific PDFs spanning eight
domains and six publishers.  Real PDFs (and the parsers' native rendering
stacks) are unavailable offline, so this package provides a *generative model*
of scientific documents that preserves the attributes the AdaParse routing
problem actually depends on:

* ground-truth text per page (prose, LaTeX equations, SMILES strings, tables,
  citations, references) with domain-dependent composition,
* an embedded **text layer** whose fidelity varies with the producing tool
  (clean born-digital, noisy, OCR-derived, scrambled, or missing),
* a rasterised **image layer** whose quality varies with scan degradation
  (rotation, blur, contrast, compression),
* publisher/producer/year/category metadata used by the CLS II classifier.

A run reads its documents from a source (:mod:`repro.documents.sources`).
The kinds are a closed set of two, ``synthetic`` (this generator) and
``simpdf-dir`` (a directory of SimPDF files); a kind's options are its
constructor's parameters (for ``synthetic``, the fields of
:class:`CorpusConfig`), and any other option is refused by name.
"""

from __future__ import annotations

from repro.documents.document import (
    ImageLayer,
    PageContent,
    PageElement,
    SciDocument,
    TextLayer,
    TextLayerQuality,
)
from repro.documents.metadata import DocumentMetadata
from repro.documents.corpus import Corpus, CorpusConfig, build_corpus
from repro.documents.augment import (
    AugmentationConfig,
    degrade_image_layers,
    replace_text_layers_with_ocr,
)
from repro.documents.simpdf import SimPdfWriter
from repro.documents.sources import (
    DocumentRef,
    DocumentSource,
    ExplicitSource,
    SimPdfDirSource,
    SourceSpec,
    StaleReference,
    SyntheticSource,
    create_source,
    parse_source_arg,
    source_names,
    validate_source_spec,
)

__all__ = [
    "ImageLayer",
    "PageContent",
    "PageElement",
    "SciDocument",
    "TextLayer",
    "TextLayerQuality",
    "DocumentMetadata",
    "Corpus",
    "CorpusConfig",
    "build_corpus",
    "AugmentationConfig",
    "degrade_image_layers",
    "replace_text_layers_with_ocr",
    "SimPdfWriter",
    "DocumentRef",
    "DocumentSource",
    "SourceSpec",
    "StaleReference",
    "SyntheticSource",
    "ExplicitSource",
    "SimPdfDirSource",
    "create_source",
    "parse_source_arg",
    "source_names",
    "validate_source_spec",
]
