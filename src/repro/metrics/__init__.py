"""Text-quality metrics used to compare parser output against ground truth.

The paper evaluates parsers with document-level coverage, word-level BLEU and
ROUGE, character-level accuracy (CAR), and two preference-derived measures
(win rate and accepted tokens).  All of them are implemented here from
scratch; see the individual modules for definitions and caveats.
"""

from __future__ import annotations

from repro.metrics.tokenize import normalize_text, word_tokenize, ngrams
from repro.metrics.levenshtein import levenshtein_distance
from repro.metrics.bleu import bleu_score
from repro.metrics.rouge import rouge_n
from repro.metrics.car import character_accuracy_rate
from repro.metrics.coverage import page_coverage_rate
from repro.metrics.accepted_tokens import accepted_token_rate
from repro.metrics.bundle import MetricBundle, evaluate_parse

__all__ = [
    "normalize_text",
    "word_tokenize",
    "ngrams",
    "levenshtein_distance",
    "bleu_score",
    "rouge_n",
    "character_accuracy_rate",
    "page_coverage_rate",
    "accepted_token_rate",
    "MetricBundle",
    "evaluate_parse",
]
