"""Win-rate bookkeeping for pairwise preference tournaments.

The preference study presents users with two parser outputs for the same page
and records the preferred one (or indifference).  Since each parser appears in
a different number of pairings, the paper reports *normalised* win rates:
wins divided by the number of decided comparisons the parser took part in.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class PairwiseOutcome:
    """One recorded comparison between two parsers on one document page."""

    doc_id: str
    parser_a: str
    parser_b: str
    winner: str | None  # parser name, or None for "neither"

    def __post_init__(self) -> None:
        if self.winner is not None and self.winner not in (self.parser_a, self.parser_b):
            raise ValueError("winner must be one of the two compared parsers (or None)")


@dataclass
class WinRateTally:
    """Accumulates wins and appearances per parser."""

    wins: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    decided_appearances: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    appearances: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    indifferent: int = 0
    total: int = 0

    def add(self, outcome: PairwiseOutcome) -> None:
        """Record one comparison."""
        self.total += 1
        self.appearances[outcome.parser_a] += 1
        self.appearances[outcome.parser_b] += 1
        if outcome.winner is None:
            self.indifferent += 1
            return
        self.decided_appearances[outcome.parser_a] += 1
        self.decided_appearances[outcome.parser_b] += 1
        self.wins[outcome.winner] += 1

    def win_rate(self, parser: str) -> float:
        """Normalised win rate of one parser (wins / decided appearances)."""
        decided = self.decided_appearances.get(parser, 0)
        if decided == 0:
            return 0.0
        return self.wins.get(parser, 0) / decided

    def decisiveness(self) -> float:
        """Fraction of comparisons where the user expressed a preference."""
        if self.total == 0:
            return 0.0
        return 1.0 - self.indifferent / self.total


def consensus_rate(outcomes_by_triplet: Mapping[tuple[str, str, str], list[str | None]]) -> float:
    """Agreement rate among repeated judgements of the same (page, A, B) triplet.

    The paper reports that 82.2 % of triplets shown to multiple users received
    the same choice; this computes that statistic given the raw judgements.
    """
    repeated = {k: v for k, v in outcomes_by_triplet.items() if len(v) >= 2}
    if not repeated:
        return 1.0
    agreeing = 0
    for judgements in repeated.values():
        counts: dict[str | None, int] = defaultdict(int)
        for j in judgements:
            counts[j] += 1
        majority = max(counts.values())
        if majority == len(judgements):
            agreeing += 1
    return agreeing / len(repeated)
