"""Character accuracy rate (CAR).

CAR measures the fraction of ground-truth characters reproduced by the parser:
``1 − edit_distance / len(ground_truth)`` clipped to ``[0, 1]``.  Following
the paper's observation that edit distance on whole multi-page parses is
computationally prohibitive, CAR is computed page by page (aligning the
parser's page outputs with the ground-truth pages) with a per-page character
cap, then averaged weighted by page length.
"""

from __future__ import annotations

from typing import Sequence

from repro.metrics.levenshtein import levenshtein_distance
from repro.metrics.tokenize import character_tokens


def page_character_accuracy(
    ground_truth: str,
    parsed: str,
    max_chars: int = 2000,
) -> float:
    """CAR of one page, in ``[0, 1]``."""
    gt = character_tokens(ground_truth)[:max_chars]
    out = character_tokens(parsed)[:max_chars]
    if not gt:
        return 1.0 if not out else 0.0
    if not out:
        return 0.0
    distance = levenshtein_distance(gt, out)
    return max(0.0, 1.0 - distance / len(gt))


def character_accuracy_rate(
    ground_truth_pages: Sequence[str],
    parsed_pages: Sequence[str],
    max_chars: int = 2000,
) -> float:
    """Document-level CAR: length-weighted mean of per-page CARs.

    Missing parser pages (shorter output) count as zero-accuracy pages, which
    penalises the page-dropping failure mode in the same way the paper's
    coverage-aware evaluation does.
    """
    if not ground_truth_pages:
        return 1.0
    total_weight = 0.0
    weighted = 0.0
    for i, gt_page in enumerate(ground_truth_pages):
        parsed = parsed_pages[i] if i < len(parsed_pages) else ""
        weight = max(1, len(gt_page))
        accuracy = page_character_accuracy(gt_page, parsed, max_chars=max_chars)
        weighted += weight * accuracy
        total_weight += weight
    return weighted / total_weight if total_weight else 1.0
