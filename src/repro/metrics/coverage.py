"""Document coverage: the fraction of pages for which a parser returned text.

The paper's most severe failure mode is a dropped page; coverage captures it
at the document level.  A page counts as covered when the parser produced at
least ``min_fraction`` of the ground-truth page's character mass.
"""

from __future__ import annotations

from typing import Sequence


def page_coverage_rate(
    ground_truth_pages: Sequence[str],
    parsed_pages: Sequence[str],
    min_fraction: float = 0.2,
) -> float:
    """Fraction of ground-truth pages covered by the parse, in ``[0, 1]``."""
    if not ground_truth_pages:
        return 1.0
    covered = 0
    for i, gt_page in enumerate(ground_truth_pages):
        parsed = parsed_pages[i] if i < len(parsed_pages) else ""
        required = max(1, int(min_fraction * len(gt_page.strip())))
        if len(parsed.strip()) >= required:
            covered += 1
    return covered / len(ground_truth_pages)
