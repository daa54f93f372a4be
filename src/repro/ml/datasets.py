"""Labelled datasets for training and evaluating the selection models.

The supervised signal of the paper (Appendix A) is a regression dataset: for
every training document, the default parser's first-page text is paired with
the accuracy (BLEU) that *each* available parser achieves on that document.
Building the dataset therefore means running every parser on every training
document once and scoring its output — exactly what this module does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.documents.corpus import Corpus
from repro.documents.document import SciDocument
from repro.documents.metadata import DocumentMetadata
from repro.metrics.bleu import BleuReference
from repro.metrics.tokenize import word_tokenize
from repro.parsers.base import ParseResult
from repro.parsers.registry import ParserRegistry


@dataclass(frozen=True)
class QualityExample:
    """One supervised example for the selector."""

    doc_id: str
    default_text: str
    metadata: DocumentMetadata
    targets: np.ndarray  # per-parser accuracy, ordered like the dataset's parser_names
    n_tokens: int


@dataclass
class QualityDataset:
    """A collection of :class:`QualityExample` with a fixed parser ordering."""

    parser_names: list[str]
    examples: list[QualityExample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def texts(self) -> list[str]:
        """Default-parser first-page texts."""
        return [e.default_text for e in self.examples]

    @property
    def targets(self) -> np.ndarray:
        """Accuracy matrix ``[n_examples, n_parsers]``."""
        if not self.examples:
            return np.zeros((0, len(self.parser_names)))
        return np.stack([e.targets for e in self.examples], axis=0)

    @property
    def metadatas(self) -> list[DocumentMetadata]:
        return [e.metadata for e in self.examples]

    @property
    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.examples]

    def best_parser_labels(self) -> np.ndarray:
        """Index of the accuracy-maximal parser per example."""
        return self.targets.argmax(axis=1)

    def subset(self, indices: Sequence[int]) -> "QualityDataset":
        """Dataset restricted to the given example indices."""
        return QualityDataset(
            parser_names=list(self.parser_names),
            examples=[self.examples[i] for i in indices],
        )


def _label_text(pages: Sequence[str], label_pages: int | None) -> str:
    """The first ``label_pages`` pages (``None`` = all) as one text to score."""
    return "\n".join(pages[:label_pages])


def document_parser_bleu(
    document: SciDocument,
    result: ParseResult,
    label_pages: int | None = None,
) -> float:
    """BLEU of one parse against the document's ground truth.

    ``label_pages`` restricts scoring to the first *k* pages, which is how the
    paper's stage-1 regression targets (page-wise accuracy) are built; ``None``
    scores the whole document.
    """
    reference = BleuReference(_label_text(document.ground_truth_pages(), label_pages))
    return reference.score(_label_text(result.page_texts, label_pages))


def build_quality_dataset(
    corpus: Corpus,
    registry: ParserRegistry,
    default_parser: str = "pymupdf",
    label_pages: int | None = 3,
) -> QualityDataset:
    """Run every parser over the corpus and assemble the regression dataset.

    Parameters
    ----------
    corpus:
        Documents to label (normally the training split).
    registry:
        Parsers to label with; the dataset's target ordering follows
        ``registry.names``.
    default_parser:
        The parser whose first-page output forms the model input.
    label_pages:
        Number of leading pages used for the BLEU targets (``None`` = all).
    """
    if default_parser not in registry:
        raise KeyError(f"default parser {default_parser!r} not in registry")
    parser_names = registry.names
    dataset = QualityDataset(parser_names=parser_names)
    for document in corpus:
        targets = np.zeros(len(parser_names), dtype=np.float64)
        default_text = ""
        # One reference per document: every parser is scored against it.
        reference = BleuReference(_label_text(document.ground_truth_pages(), label_pages))
        for j, name in enumerate(parser_names):
            result = registry.get(name).parse(document)
            targets[j] = reference.score(_label_text(result.page_texts, label_pages))
            if name == default_parser:
                default_text = result.page_texts[0] if result.page_texts else ""
        n_tokens = len(word_tokenize(document.ground_truth_text()))
        dataset.examples.append(
            QualityExample(
                doc_id=document.doc_id,
                default_text=default_text,
                metadata=document.metadata,
                targets=targets,
                n_tokens=n_tokens,
            )
        )
    return dataset
