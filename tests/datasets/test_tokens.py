"""Tests of token accounting and goodput."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.tokens import (
    TokenAccount,
    account_records,
    goodput_table,
)

from tests.datasets.conftest import make_record


class TestAccountRecords:
    def test_totals(self):
        records = [
            make_record(doc_id="a", text="w " * 100, quality=0.9, cpu_seconds=1.0),
            make_record(doc_id="b", text="w " * 50, quality=0.1, cpu_seconds=2.0, gpu_seconds=3.0),
        ]
        account = account_records(records, threshold=0.35)
        assert account.n_documents == 2
        assert account.n_tokens == 150
        assert account.n_accepted_tokens == 100
        assert account.cpu_seconds == pytest.approx(3.0)
        assert account.gpu_seconds == pytest.approx(3.0)

    def test_unknown_quality_never_accepted(self):
        account = account_records([make_record(quality=None, text="w " * 40)])
        assert account.n_accepted_tokens == 0
        assert account.n_tokens == 40

    def test_threshold_boundary_accepted(self):
        account = account_records([make_record(quality=0.35, text="w " * 10)], threshold=0.35)
        assert account.n_accepted_tokens == 10

    def test_empty(self):
        account = account_records([])
        assert account.n_documents == 0
        assert account.acceptance_rate == 0.0
        assert account.goodput_per_node_hour() == 0.0


class TestTokenAccount:
    def test_acceptance_rate(self):
        account = TokenAccount(n_documents=2, n_tokens=200, n_accepted_tokens=150)
        assert account.acceptance_rate == pytest.approx(0.75)

    def test_goodput_per_node_hour_uses_bottleneck_resource(self):
        # 32 CPU-core-hours of work == 1 node-hour; 8 GPU-hours == 2 node-hours.
        account = TokenAccount(
            n_accepted_tokens=1000,
            cpu_seconds=32 * 3600.0,
            gpu_seconds=8 * 3600.0,
        )
        assert account.goodput_per_node_hour(cpu_cores=32, gpus=4) == pytest.approx(500.0)

    def test_goodput_per_node_hour_invalid_shape(self):
        with pytest.raises(ValueError):
            TokenAccount().goodput_per_node_hour(cpu_cores=0)

    def test_merge(self):
        a = TokenAccount(n_documents=1, n_tokens=10, n_accepted_tokens=5, cpu_seconds=1.0)
        b = TokenAccount(n_documents=2, n_tokens=20, n_accepted_tokens=20, gpu_seconds=2.0)
        merged = a.merged(b)
        assert merged.n_documents == 3
        assert merged.n_tokens == 30
        assert merged.n_accepted_tokens == 25
        assert merged.cpu_seconds == pytest.approx(1.0)
        assert merged.gpu_seconds == pytest.approx(2.0)

    def test_merge_rejects_mismatched_thresholds(self):
        with pytest.raises(ValueError):
            TokenAccount(threshold=0.3).merged(TokenAccount(threshold=0.5))

    def test_as_dict_shape(self):
        payload = TokenAccount(n_documents=1, n_tokens=10, n_accepted_tokens=10).as_dict()
        assert {"n_documents", "n_tokens", "n_accepted_tokens", "acceptance_rate"} <= set(payload)

    @given(
        tokens=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=30),
        qualities=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_accepted_never_exceeds_total(self, tokens, qualities):
        n = min(len(tokens), len(qualities))
        records = [
            make_record(doc_id=f"d{i}", text="w " * tokens[i], quality=qualities[i])
            for i in range(n)
        ]
        account = account_records(records)
        assert 0 <= account.n_accepted_tokens <= account.n_tokens
        assert 0.0 <= account.acceptance_rate <= 1.0


class TestMergeAssociativity:
    @given(
        counts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_is_associative(self, counts):
        accounts = [
            TokenAccount(n_documents=1, n_tokens=total, n_accepted_tokens=min(total, accepted))
            for total, accepted in counts
        ]
        left = accounts[0].merged(accounts[1]).merged(accounts[2])
        right = accounts[0].merged(accounts[1].merged(accounts[2]))
        assert left == right


class TestHelpers:
    def test_goodput_table_rows(self):
        accounts = {
            "pymupdf": TokenAccount(n_documents=3, n_tokens=300, n_accepted_tokens=200, cpu_seconds=10),
            "nougat": TokenAccount(n_documents=3, n_tokens=300, n_accepted_tokens=290, gpu_seconds=100),
        }
        table = goodput_table(accounts)
        assert len(table.rows) == 2
        assert table.column("Parser") == ["pymupdf", "nougat"]
