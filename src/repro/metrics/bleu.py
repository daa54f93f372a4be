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
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.metrics.tokenize import word_tokenize

#: Closes each order's sorted code array: above every n-gram code.
_NO_CODE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class BleuStatistics:
    """Sufficient statistics of a BLEU computation."""

    matches: tuple[int, ...]
    totals: tuple[int, ...]
    candidate_length: int
    reference_length: int

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
    depend on the candidate.  They are held as integers: each distinct
    reference token gets a dense id, and an n-gram's code is the index of its
    leading (n-1)-gram among that order's distinct codes, times the
    vocabulary size, plus its last token's id.  Equal n-grams get equal codes
    and different ones different codes, so a sorted array of each order's
    distinct codes and their counts is the multiset, and clipped matches are
    exact integer sums.  Codes stay below (reference tokens)², far from the
    int64 limit.
    """

    def __init__(self, reference: str, max_n: int = 4) -> None:
        if max_n <= 0:
            raise ValueError(f"max_n must be positive, got {max_n}")
        tokens = word_tokenize(reference)
        self.length = len(tokens)
        self._token_ids = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
        ids = np.fromiter(map(self._token_ids.__getitem__, tokens), np.int64, len(tokens))
        # Per order: the distinct codes, ascending and closed by a sentinel
        # no code reaches (so a lookup never runs off the end), and how often
        # each occurs (the sentinel zero times).
        self._grams: list[tuple[np.ndarray, np.ndarray]] = []
        index = ids
        for n in range(1, max_n + 1):
            codes = ids if n == 1 else index[:-1] * len(self._token_ids) + ids[n - 1 :]
            distinct, index, counts = np.unique(codes, return_inverse=True, return_counts=True)
            self._grams.append((np.append(distinct, _NO_CODE), np.append(counts, 0)))

    def statistics(self, candidate: str) -> BleuStatistics:
        """Per-segment BLEU sufficient statistics of ``candidate``."""
        tokens = word_tokenize(candidate)
        ids = np.fromiter(map(self._token_ids.get, tokens, repeat(-1)), np.int64, len(tokens))
        known = ids >= 0
        matches = []
        index = ids
        for n, (distinct, counts) in enumerate(self._grams, start=1):
            if n == 1:
                codes, valid = ids, known
            else:
                codes = index[:-1] * len(self._token_ids) + ids[n - 1 :]
                valid = (index[:-1] >= 0) & known[n - 1 :]
            at = np.searchsorted(distinct, codes)
            found = valid & (distinct[at] == codes)
            index = np.where(found, at, -1)
            seen = np.bincount(at[found], minlength=len(counts))
            matches.append(int(np.minimum(seen, counts).sum()))
        return BleuStatistics(
            matches=tuple(matches),
            totals=tuple(max(0, len(tokens) - n + 1) for n in range(1, len(self._grams) + 1)),
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
