"""Tests for the α-constrained budget optimiser (Appendix C)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import (
    alpha_for_budget,
    budget_for_alpha,
    optimality_gap,
    select_within_budget,
)

improvement_lists = st.lists(
    st.floats(min_value=-0.5, max_value=0.8, allow_nan=False), min_size=0, max_size=200
)
# Finite and short enough (n <= 10) to enumerate every subset.
small_improvement_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=0, max_size=10
)


class TestAlphaForBudget:
    def test_closed_form(self):
        # 100 documents, default costs 1 s, expensive costs 11 s, budget 150 s:
        # α ≤ (150 − 100) / (100 · 10) = 0.05
        assert alpha_for_budget(150, 100, 1.0, 11.0) == pytest.approx(0.05)

    def test_budget_below_default_cost_gives_zero(self):
        assert alpha_for_budget(50, 100, 1.0, 11.0) == 0.0

    def test_budget_above_all_expensive_gives_one(self):
        assert alpha_for_budget(10_000, 100, 1.0, 11.0) == 1.0

    def test_round_trip_with_budget_for_alpha(self):
        total = budget_for_alpha(0.05, 100, 1.0, 11.0)
        assert alpha_for_budget(total, 100, 1.0, 11.0) == pytest.approx(0.05)

    def test_cheap_expensive_parser(self):
        assert alpha_for_budget(10, 100, 1.0, 0.5) == 1.0

    def test_invalid_document_count(self):
        with pytest.raises(ValueError):
            alpha_for_budget(10, 0, 1.0, 2.0)


class TestSelectWithinBudget:
    def test_selects_top_improvements(self):
        improvements = [0.1, 0.5, 0.0, 0.4, 0.2]
        plan = select_within_budget(improvements, alpha=0.4)
        assert plan.n_expensive == 2
        assert plan.route_expensive[1] and plan.route_expensive[3]

    def test_alpha_zero_routes_nothing(self):
        plan = select_within_budget([0.5, 0.9], alpha=0.0)
        assert plan.n_expensive == 0

    def test_margin_excludes_small_gains(self):
        plan = select_within_budget([0.01, 0.02, 0.9], alpha=1.0, margin=0.05)
        assert plan.n_expensive == 1

    def test_per_batch_cap(self):
        improvements = [0.9] * 10 + [0.0] * 10
        plan = select_within_budget(improvements, alpha=0.2, batch_size=10)
        # 20 % per batch of 10 → 2 in the first batch, 0 in the second (no gain).
        assert plan.route_expensive[:10].sum() == 2
        assert plan.route_expensive[10:].sum() == 0

    def test_empty_input(self):
        plan = select_within_budget([], alpha=0.5)
        assert plan.n_expensive == 0
        assert plan.expensive_fraction == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            select_within_budget([0.1], alpha=1.5)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            select_within_budget([0.1], alpha=0.5, batch_size=0)

    def test_infinite_scores_prioritised(self):
        improvements = np.array([0.3, np.inf, 0.5, 0.1])
        plan = select_within_budget(improvements, alpha=0.25)
        assert plan.route_expensive[1]

    @settings(max_examples=60, deadline=None)
    @given(improvement_lists, st.floats(min_value=0, max_value=1))
    def test_fraction_never_exceeds_alpha(self, improvements, alpha):
        plan = select_within_budget(improvements, alpha=alpha)
        assert plan.n_expensive <= int(np.floor(alpha * len(improvements)))

    @settings(max_examples=60, deadline=None)
    @given(improvement_lists, st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=32))
    def test_batched_fraction_never_exceeds_alpha_per_batch(self, improvements, alpha, batch_size):
        plan = select_within_budget(improvements, alpha=alpha, batch_size=batch_size)
        routed = plan.route_expensive
        for start in range(0, len(improvements), batch_size):
            chunk = routed[start : start + batch_size]
            assert chunk.sum() <= int(np.floor(alpha * len(chunk)))

    @settings(max_examples=150, deadline=None)
    @given(small_improvement_lists, st.floats(min_value=0, max_value=1))
    def test_global_plan_reaches_the_brute_force_optimum(self, improvements, alpha):
        # The deployed two-parser problem: no subset of at most floor(α·n)
        # documents has a larger summed improvement than the plan's.  Gains,
        # not masks, are compared, because ties make the optimal mask ambiguous.
        plan = select_within_budget(improvements, alpha, batch_size=None, margin=0.0)
        k = int(np.floor(alpha * len(improvements)))
        optimum = max(
            sum(subset)
            for size in range(k + 1)
            for subset in combinations(improvements, size)
        )
        assert plan.expected_gain() == pytest.approx(optimum, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(improvement_lists, st.floats(min_value=0, max_value=1))
    def test_never_routes_non_positive_improvements(self, improvements, alpha):
        plan = select_within_budget(improvements, alpha=alpha, margin=0.0)
        scores = np.asarray(improvements)
        if plan.n_expensive:
            assert scores[plan.route_expensive].min() > 0


def brute_force_mask(scores: list[float], k: int, margin: float) -> np.ndarray:
    """The written order, by Python's sort: eligible documents by
    (−score, −position), the first ``k`` of them routed."""
    eligible = [i for i, score in enumerate(scores) if score > margin]
    mask = np.zeros(len(scores), dtype=bool)
    mask[sorted(eligible, key=lambda i: (-scores[i], -i))[: max(k, 0)]] = True
    return mask


# Few distinct values, so lists are full of ties: rejects (inf), scores at
# and around the default margin, and non-positive ones.
tied_score_lists = st.lists(
    st.sampled_from([np.inf, 0.9, 0.5, 0.03, 0.02, 0.01, 0.0, -0.2, -np.inf]),
    min_size=0,
    max_size=300,
)


class TestWrittenTieBreak:
    """Equal improvements go to the *later* position first.  The rule is
    the budget's own, not numpy's: every case runs with ``np.argsort``
    forced to each sort kind, unstable ones included."""

    @pytest.fixture(autouse=True, params=["quicksort", "heapsort", "stable"])
    def sort_kind(self, request, monkeypatch):
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, *args, **kwargs: argsort(a, kind=request.param)
        )

    def test_three_hundred_tied_rejects_route_the_last_k(self):
        # Past every small-array path of a sort (insertion sort below 16).
        plan = select_within_budget(np.full(300, np.inf), alpha=0.05)
        assert np.flatnonzero(plan.route_expensive).tolist() == list(range(285, 300))

    def test_rejects_among_unscored_documents_route_the_last_k(self):
        # The engine's skipped batch: rejects at inf, everyone else at -inf.
        effective = np.full(256, -np.inf)
        rejects = [3, 17, 40, 41, 99, 128, 130, 200, 201, 202, 230, 231, 250, 251, 254]
        effective[rejects] = np.inf
        plan = select_within_budget(effective, alpha=0.05, margin=0.02)
        assert np.flatnonzero(plan.route_expensive).tolist() == rejects[-12:]

    def test_mixed_finite_ties(self):
        scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.5, 0.1]
        plan = select_within_budget(scores, alpha=0.5)  # four slots
        # Both 0.9s, then the two latest of the four 0.5s.
        assert np.flatnonzero(plan.route_expensive).tolist() == [1, 4, 5, 6]

    def test_rejects_come_before_every_score_then_ties_by_position(self):
        scores = [np.inf, 0.4, 0.4, np.inf, 0.4, 0.3]
        plan = select_within_budget(scores, alpha=0.5)  # three slots
        assert np.flatnonzero(plan.route_expensive).tolist() == [0, 3, 4]

    def test_a_score_at_the_margin_is_not_eligible(self):
        scores = [0.02, 0.02 + 1e-12, 0.02, np.nextafter(0.02, 1.0)]
        plan = select_within_budget(scores, alpha=1.0, margin=0.02)
        assert np.flatnonzero(plan.route_expensive).tolist() == [1, 3]
        tied = select_within_budget([0.02] * 40, alpha=1.0, margin=0.02)
        assert tied.n_expensive == 0

    @settings(max_examples=150, deadline=None)
    @given(
        tied_score_lists,
        st.floats(min_value=0, max_value=1),
        st.sampled_from([0.0, 0.02]),
    )
    def test_matches_the_brute_force_order(self, scores, alpha, margin):
        plan = select_within_budget(scores, alpha, batch_size=None, margin=margin)
        k = int(np.floor(alpha * len(scores)))
        assert np.array_equal(plan.route_expensive, brute_force_mask(scores, k, margin))

    @settings(max_examples=60, deadline=None)
    @given(tied_score_lists, st.floats(min_value=0, max_value=1), st.integers(1, 64))
    def test_every_batch_follows_the_brute_force_order(self, scores, alpha, batch_size):
        plan = select_within_budget(scores, alpha, batch_size=batch_size, margin=0.02)
        for start in range(0, len(scores), batch_size):
            chunk = scores[start : start + batch_size]
            expected = brute_force_mask(chunk, int(np.floor(alpha * len(chunk))), 0.02)
            assert np.array_equal(plan.route_expensive[start : start + batch_size], expected)


class TestOptimalityGap:
    def test_gap_zero_for_global_batch(self):
        improvements = np.linspace(0, 1, 100)
        assert optimality_gap(improvements, alpha=0.1, batch_size=100) == pytest.approx(0.0)

    def test_gap_small_for_large_batches(self):
        rng = np.random.default_rng(0)
        improvements = rng.random(1024)
        gap = optimality_gap(improvements, alpha=0.05, batch_size=256)
        assert 0.0 <= gap < 0.15

    def test_gap_larger_for_tiny_batches(self):
        rng = np.random.default_rng(1)
        improvements = rng.random(1024)
        tiny = optimality_gap(improvements, alpha=0.05, batch_size=8)
        large = optimality_gap(improvements, alpha=0.05, batch_size=512)
        assert tiny >= large
