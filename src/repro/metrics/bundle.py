"""Bundled per-document quality evaluation.

:func:`evaluate_parse` computes every metric the paper's tables report for a
single (ground truth, parse) pair; the evaluation harness aggregates bundles
over a corpus and parser set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.bleu import bleu_score
from repro.metrics.car import character_accuracy_rate
from repro.metrics.coverage import page_coverage_rate
from repro.metrics.rouge import rouge_n
from repro.metrics.tokenize import word_tokenize


@dataclass(frozen=True)
class MetricBundle:
    """Quality metrics of one parse of one document.

    Attributes
    ----------
    coverage:
        Fraction of ground-truth pages covered by the parse.
    bleu:
        Document-level BLEU (4-gram, smoothed).
    rouge:
        ROUGE-1 F1 (the paper's "ROUGE" column).
    car:
        Character accuracy rate.
    n_ground_truth_tokens:
        Number of ground-truth word tokens (weight for accepted-token rates).
    """

    coverage: float
    bleu: float
    rouge: float
    car: float
    n_ground_truth_tokens: int

    def as_dict(self) -> dict[str, float]:
        """Dictionary form (used by the reporting layer)."""
        return {
            "coverage": self.coverage,
            "bleu": self.bleu,
            "rouge": self.rouge,
            "car": self.car,
            "n_ground_truth_tokens": float(self.n_ground_truth_tokens),
        }


def evaluate_parse(
    ground_truth_pages: Sequence[str],
    parsed_pages: Sequence[str],
    car_max_chars: int = 2000,
) -> MetricBundle:
    """Evaluate a parse given per-page ground truth and per-page parser output."""
    ground_truth_text = "\n".join(ground_truth_pages)
    parsed_text = "\n".join(parsed_pages)
    coverage = page_coverage_rate(ground_truth_pages, parsed_pages)
    bleu = bleu_score(parsed_text, ground_truth_text)
    rouge = rouge_n(parsed_text, ground_truth_text, n=1)["f1"]
    car = character_accuracy_rate(ground_truth_pages, parsed_pages, max_chars=car_max_chars)
    n_tokens = len(word_tokenize(ground_truth_text))
    return MetricBundle(
        coverage=coverage,
        bleu=bleu,
        rouge=rouge,
        car=car,
        n_ground_truth_tokens=n_tokens,
    )
