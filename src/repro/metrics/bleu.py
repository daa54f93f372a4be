"""BLEU score (Papineni et al., 2002) for parser output vs ground truth.

The paper uses BLEU as its primary word-level accuracy proxy (and as the
regression target of the selector model), while acknowledging in Section 2.2
that it correlates with but does not fully determine human preference.  This
implementation follows the standard definition: clipped n-gram precision up to
``max_n`` with uniform weights, a brevity penalty, and optional add-one
smoothing for the higher orders (Lin & Och's smoothing-1), which keeps scores
informative on shorter segments such as single pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.metrics.tokenize import clipped_matches, ngrams, word_tokenize


@dataclass(frozen=True)
class BleuStatistics:
    """Sufficient statistics of a BLEU computation (summable across segments)."""

    matches: tuple[int, ...]
    totals: tuple[int, ...]
    candidate_length: int
    reference_length: int

    def __add__(self, other: "BleuStatistics") -> "BleuStatistics":
        if len(self.matches) != len(other.matches):
            raise ValueError("cannot add BLEU statistics of different orders")
        return BleuStatistics(
            matches=tuple(a + b for a, b in zip(self.matches, other.matches)),
            totals=tuple(a + b for a, b in zip(self.totals, other.totals)),
            candidate_length=self.candidate_length + other.candidate_length,
            reference_length=self.reference_length + other.reference_length,
        )

    def score(self, smooth: bool = True) -> float:
        """Compute BLEU from the accumulated statistics."""
        return _score_from_counts(
            self.matches, self.totals, self.candidate_length, self.reference_length, smooth
        )


def _score_from_counts(
    matches: Sequence[int],
    totals: Sequence[int],
    candidate_length: int,
    reference_length: int,
    smooth: bool,
) -> float:
    if candidate_length == 0 or reference_length == 0:
        return 0.0
    log_precision_sum = 0.0
    max_n = len(matches)
    for n in range(max_n):
        m, t = matches[n], totals[n]
        if t == 0:
            return 0.0
        if m == 0:
            if not smooth:
                return 0.0
            m_eff, t_eff = 1.0, float(t + 1)
        elif smooth and n > 0:
            m_eff, t_eff = float(m + 1), float(t + 1)
        else:
            m_eff, t_eff = float(m), float(t)
        log_precision_sum += math.log(m_eff / t_eff)
    geometric_mean = math.exp(log_precision_sum / max_n)
    if candidate_length >= reference_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - reference_length / candidate_length)
    return float(brevity_penalty * geometric_mean)


class BleuReference:
    """A reference text, tokenised and counted once, to score candidates against.

    Labelling scores every parser's output against the same ground truth;
    the reference's n-gram multisets are the half of that work that does not
    depend on the candidate.
    """

    def __init__(self, reference: str, max_n: int = 4) -> None:
        tokens = word_tokenize(reference)
        self.length = len(tokens)
        self.counts = [ngrams(tokens, n) for n in range(1, max_n + 1)]

    def statistics(self, candidate: str) -> BleuStatistics:
        """Per-segment BLEU sufficient statistics of ``candidate``."""
        tokens = word_tokenize(candidate)
        return BleuStatistics(
            matches=tuple(
                clipped_matches(ngrams(tokens, n), reference)
                for n, reference in enumerate(self.counts, start=1)
            ),
            totals=tuple(max(0, len(tokens) - n + 1) for n in range(1, len(self.counts) + 1)),
            candidate_length=len(tokens),
            reference_length=self.length,
        )

    def score(self, candidate: str, smooth: bool = True) -> float:
        """BLEU of ``candidate`` against this reference, in ``[0, 1]``."""
        return self.statistics(candidate).score(smooth=smooth)


def bleu_statistics(candidate: str, reference: str, max_n: int = 4) -> BleuStatistics:
    """Per-segment BLEU sufficient statistics."""
    return BleuReference(reference, max_n=max_n).statistics(candidate)


def bleu_score(candidate: str, reference: str, max_n: int = 4, smooth: bool = True) -> float:
    """BLEU of a candidate text against a single reference, in ``[0, 1]``."""
    return bleu_statistics(candidate, reference, max_n=max_n).score(smooth=smooth)


def corpus_bleu(
    candidates: Sequence[str], references: Sequence[str], max_n: int = 4, smooth: bool = True
) -> float:
    """Corpus-level BLEU: statistics pooled over segments before scoring."""
    if len(candidates) != len(references):
        raise ValueError("candidates and references must have equal length")
    if not candidates:
        return 0.0
    pooled: BleuStatistics | None = None
    for cand, ref in zip(candidates, references):
        stats = bleu_statistics(cand, ref, max_n=max_n)
        pooled = stats if pooled is None else pooled + stats
    assert pooled is not None
    return pooled.score(smooth=smooth)
