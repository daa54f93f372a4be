"""ROUGE-N (Lin, 2004): n-gram precision, recall and F1.

The paper reports a single "ROUGE" column; we follow the common convention of
reporting the ROUGE-1 F1 score there.
"""

from __future__ import annotations

from repro.metrics.tokenize import ngrams, word_tokenize


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def rouge_n(candidate: str, reference: str, n: int = 1) -> dict[str, float]:
    """ROUGE-N precision/recall/F1 between candidate and reference texts."""
    cand_tokens = word_tokenize(candidate)
    ref_tokens = word_tokenize(reference)
    cand_grams = ngrams(cand_tokens, n)
    ref_grams = ngrams(ref_tokens, n)
    if not cand_grams or not ref_grams:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    overlap = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
    precision = overlap / sum(cand_grams.values())
    recall = overlap / sum(ref_grams.values())
    return {"precision": precision, "recall": recall, "f1": _f1(precision, recall)}
