"""Budget-constrained assignment of documents to parsers (Appendix C).

The optimisation problem of Section 4 reduces, for the deployed two-parser
configuration, to choosing which documents get the expensive parser subject to
a total-compute constraint.  Appendix C shows the constraint translates into a
cap α on the *fraction* of documents routed to the expensive parser, and that
the objective is maximised by sorting documents by expected accuracy
improvement and taking the top ⌊αn⌋.  AdaParse applies this per scheduling
batch; the global solution is also implemented here so the ablation benchmark
can measure the (negligible) per-batch optimality gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def alpha_for_budget(
    total_budget_seconds: float,
    n_documents: int,
    default_cost_seconds: float,
    expensive_cost_seconds: float,
) -> float:
    """The largest α compatible with a total compute budget.

    Implements the closed-form bound of Appendix C:
    ``α ≤ (T − n·T_default) / (n·(T_expensive − T_default))``, clipped to
    ``[0, 1]``.
    """
    if n_documents <= 0:
        raise ValueError("n_documents must be positive")
    if expensive_cost_seconds <= default_cost_seconds:
        # The "expensive" parser is not actually more expensive: the budget
        # never binds and every document may use it.
        return 1.0
    numerator = total_budget_seconds - n_documents * default_cost_seconds
    denominator = n_documents * (expensive_cost_seconds - default_cost_seconds)
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def budget_for_alpha(
    alpha: float,
    n_documents: int,
    default_cost_seconds: float,
    expensive_cost_seconds: float,
) -> float:
    """Total compute implied by routing an α fraction to the expensive parser."""
    return float(
        n_documents * default_cost_seconds
        + alpha * n_documents * (expensive_cost_seconds - default_cost_seconds)
    )


@dataclass
class BudgetPlan:
    """Routing decision for a collection of documents.

    Attributes
    ----------
    route_expensive:
        Boolean array; ``True`` where the document goes to the expensive parser.
    improvements:
        The improvement scores the plan was computed from.
    alpha:
        The fraction cap that was enforced.
    """

    route_expensive: np.ndarray
    improvements: np.ndarray
    alpha: float
    batch_size: int | None = None

    @property
    def n_expensive(self) -> int:
        """Number of documents routed to the expensive parser."""
        return int(self.route_expensive.sum())

    @property
    def expensive_fraction(self) -> float:
        """Realised fraction of documents routed to the expensive parser."""
        if self.route_expensive.size == 0:
            return 0.0
        return float(self.route_expensive.mean())

    def expected_gain(self) -> float:
        """Sum of predicted improvements over the routed documents."""
        return float(self.improvements[self.route_expensive].sum())


def budget_slots(alpha: float, n_documents: int) -> int:
    """The α cap of one batch: at most ⌊α·n⌋ documents go to the expensive
    parser."""
    return int(np.floor(alpha * n_documents))


def _select_top_k(improvements: np.ndarray, k: int, margin: float) -> np.ndarray:
    """Boolean mask of the top-``k`` documents whose improvement exceeds
    ``margin``.

    The order is this function's own, not a sort kind's: higher improvement
    first, and among equal improvements the *later* position first, i.e. a
    sort on (−improvement, −position).  So when more documents tie (``inf``
    for CLS I rejects) than there are slots, the last ``k`` of them by
    position are chosen.
    """
    mask = np.zeros(improvements.shape[0], dtype=bool)
    if k <= 0 or improvements.size == 0:
        return mask
    eligible = np.flatnonzero(improvements > margin)
    if eligible.size == 0:
        return mask
    # lexsort sorts by its last key first; positions are distinct, so the
    # order is total.
    order = eligible[np.lexsort((-eligible, -improvements[eligible]))]
    mask[order[:k]] = True
    return mask


def select_within_budget(
    improvements: Sequence[float] | np.ndarray,
    alpha: float,
    batch_size: int | None = None,
    margin: float = 0.0,
) -> BudgetPlan:
    """Choose which documents to route to the expensive parser.

    Parameters
    ----------
    improvements:
        Predicted accuracy improvement of the expensive parser over the
        default parser, one value per document (in arrival order).
    alpha:
        Maximum fraction of documents routed to the expensive parser.
    batch_size:
        When given, the α cap is enforced within every consecutive batch of
        this size (AdaParse's deployed behaviour, which keeps the decision
        streaming-friendly); ``None`` enforces it globally (the reference
        solution of Appendix C).
    margin:
        Documents whose predicted improvement does not exceed ``margin`` keep
        the default parse even if budget remains.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    scores = np.asarray(improvements, dtype=np.float64)
    n = scores.shape[0]
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return BudgetPlan(route_expensive=mask, improvements=scores, alpha=alpha, batch_size=batch_size)
    if batch_size is None:
        mask = _select_top_k(scores, budget_slots(alpha, n), margin)
    else:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        for start in range(0, n, batch_size):
            stop = min(n, start + batch_size)
            batch_scores = scores[start:stop]
            k = budget_slots(alpha, stop - start)
            mask[start:stop] = _select_top_k(batch_scores, k, margin)
    return BudgetPlan(route_expensive=mask, improvements=scores, alpha=alpha, batch_size=batch_size)


def optimality_gap(
    improvements: Sequence[float] | np.ndarray, alpha: float, batch_size: int
) -> float:
    """Relative gap between per-batch and global budget solutions.

    Appendix C argues the gap is negligible for large batches (k = 256); the
    ablation benchmark reports this quantity over the test corpus.
    """
    scores = np.asarray(improvements, dtype=np.float64)
    global_plan = select_within_budget(scores, alpha, batch_size=None)
    batch_plan = select_within_budget(scores, alpha, batch_size=batch_size)
    global_gain = global_plan.expected_gain()
    if global_gain <= 0:
        return 0.0
    return float((global_gain - batch_plan.expected_gain()) / global_gain)
