"""CLS II: metadata-driven "is an improvement likely?" classifier.

For documents whose extracted text passes validation, the second stage asks
whether re-parsing with a different (more expensive) parser is likely to bring
a significant quality improvement.  The paper infers this binary label from
document metadata (authoring tool, year of publication, number of pages,
publisher, ...) with a regression/classification model; here it is a logistic
regression over the :class:`repro.ml.features.MetadataFeaturizer` vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.documents.metadata import DocumentMetadata
from repro.ml.features import MetadataFeaturizer
from repro.ml.linear import LogisticRegression


@dataclass(frozen=True)
class ImprovementLabeling:
    """How training labels for CLS II are derived from per-parser accuracies."""

    default_parser: str = "pymupdf"
    margin: float = 0.05

    def labels(self, parser_names: list[str], accuracies: np.ndarray) -> np.ndarray:
        """1 when some parser beats the default by more than ``margin``."""
        default_index = parser_names.index(self.default_parser)
        best_other = np.max(
            np.delete(accuracies, default_index, axis=1), axis=1
        )
        return (best_other > accuracies[:, default_index] + self.margin).astype(np.int64)


class ImprovementClassifier:
    """Predicts whether re-parsing is likely to improve a document's text."""

    def __init__(
        self,
        featurizer: MetadataFeaturizer | None = None,
        labeling: ImprovementLabeling | None = None,
        l2: float = 1e-3,
    ) -> None:
        self.featurizer = featurizer or MetadataFeaturizer()
        self.labeling = labeling or ImprovementLabeling()
        self.model = LogisticRegression(n_classes=2, l2=l2)
        self._fitted = False

    def fit(
        self,
        metadatas: list[DocumentMetadata],
        parser_names: list[str],
        accuracies: np.ndarray,
    ) -> "ImprovementClassifier":
        """Fit from metadata records and the per-parser accuracy matrix."""
        features = self.featurizer.extract_batch(metadatas)
        labels = self.labeling.labels(parser_names, np.asarray(accuracies, dtype=np.float64))
        self.model.fit(features, labels)
        self._fitted = True
        return self

    def weights_fingerprint(self) -> str:
        """Stable hex digest of the trained logistic-regression weights.

        Part of the engine's cache fingerprint: retraining CLS II must
        invalidate cached routing decisions.
        """
        from repro.utils.hashing import hash_buffers

        buffers: list[bytes] = [b"improvement-classifier", str(self._fitted).encode()]
        for name in ("weights", "bias"):
            value = getattr(self.model, name, None)
            if value is None:
                buffers.append(f"{name}:none".encode("utf-8"))
                continue
            array = np.ascontiguousarray(value)
            buffers.extend(
                [
                    name.encode("utf-8"),
                    str(array.dtype).encode("utf-8"),
                    str(array.shape).encode("utf-8"),
                    array.tobytes(),
                ]
            )
        return hash_buffers(*buffers)

    def improvement_probability(self, metadatas: list[DocumentMetadata]) -> np.ndarray:
        """Probability that another parser improves on the default, per document."""
        if not self._fitted:
            raise RuntimeError("ImprovementClassifier is not fitted")
        features = self.featurizer.extract_batch(metadatas)
        return self.model.predict_proba(features)[:, 1]

    def accuracy(
        self,
        metadatas: list[DocumentMetadata],
        parser_names: list[str],
        accuracies: np.ndarray,
    ) -> float:
        """Classification accuracy against labels derived from ``accuracies``."""
        labels = self.labeling.labels(parser_names, np.asarray(accuracies, dtype=np.float64))
        features = self.featurizer.extract_batch(metadatas)
        return self.model.accuracy(features, labels)
