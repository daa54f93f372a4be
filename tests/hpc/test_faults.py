"""Tests of fault injection, retry, and quarantine in the executor/campaign."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.campaign import CampaignConfig, ParsingCampaign
from repro.hpc.faults import AttemptOutcome, FaultInjector, FaultModel, RetryPolicy
from repro.hpc.workload import ParseTask
from repro.parsers.registry import default_registry


def make_task(doc_id: str = "doc-0", gpu: float = 0.0) -> ParseTask:
    return ParseTask(
        doc_id=doc_id,
        parser_name="pymupdf",
        cpu_seconds=0.2,
        gpu_seconds=gpu,
        input_mb=1.0,
        output_mb=0.01,
    )


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultModel(corrupted_document_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(transient_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(straggler_multiplier=0.5)


class TestRetryPolicy:
    def test_min_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        assert RetryPolicy(max_attempts=1).max_attempts == 1


class TestFaultInjector:
    def test_no_faults_means_always_success(self):
        injector = FaultInjector(FaultModel())
        for attempt in range(1, 5):
            outcome = injector.attempt_outcome(make_task(), attempt)
            assert outcome.succeeded
            assert outcome.runtime_multiplier == 1.0

    def test_decisions_are_deterministic(self):
        model = FaultModel(corrupted_document_rate=0.3, transient_failure_rate=0.3, straggler_rate=0.3)
        a = FaultInjector(model)
        b = FaultInjector(model)
        for i in range(20):
            task = make_task(doc_id=f"doc-{i}")
            assert a.attempt_outcome(task, 1) == b.attempt_outcome(task, 1)

    def test_corrupted_documents_fail_on_every_attempt(self):
        model = FaultModel(corrupted_document_rate=0.5, seed=3)
        injector = FaultInjector(model)
        corrupted = [
            make_task(doc_id=f"doc-{i}")
            for i in range(50)
            if injector.document_is_corrupted(make_task(doc_id=f"doc-{i}"))
        ]
        assert corrupted, "expected some corrupted documents at a 50% rate"
        for task in corrupted:
            for attempt in (1, 2, 3):
                assert injector.attempt_outcome(task, attempt).is_permanent

    def test_transient_failures_eventually_succeed(self):
        model = FaultModel(transient_failure_rate=0.4, seed=5)
        injector = FaultInjector(model)
        for i in range(30):
            task = make_task(doc_id=f"doc-{i}")
            outcomes = [injector.attempt_outcome(task, attempt) for attempt in range(1, 12)]
            assert any(o.succeeded for o in outcomes)

    def test_corrupted_rate_roughly_matches(self):
        model = FaultModel(corrupted_document_rate=0.2, seed=11)
        injector = FaultInjector(model)
        n = 500
        hits = sum(injector.document_is_corrupted(make_task(doc_id=f"d{i}")) for i in range(n))
        assert 0.1 < hits / n < 0.3

    def test_straggler_multiplier_applied(self):
        model = FaultModel(straggler_rate=1.0, straggler_multiplier=5.0)
        outcome = FaultInjector(model).attempt_outcome(make_task(), 1)
        assert outcome.runtime_multiplier == pytest.approx(5.0)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultModel()).attempt_outcome(make_task(), 0)

    @given(rate=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_outcomes_are_always_valid(self, rate):
        injector = FaultInjector(FaultModel(transient_failure_rate=rate, straggler_rate=rate))
        outcome = injector.attempt_outcome(make_task(), 1)
        assert isinstance(outcome, AttemptOutcome)
        assert outcome.outcome in ("success", "transient_failure", "permanent_failure")
        assert outcome.runtime_multiplier >= 1.0


class TestFaultTolerantCampaign:
    @pytest.fixture(scope="class")
    def registry(self):
        return default_registry()

    def test_fault_free_campaign_completes_everything(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        result = campaign.run_parser(registry.get("pymupdf"), n_documents=64)
        assert result.documents_completed == 64
        assert result.documents_failed == 0
        assert result.attempts_retried == 0
        assert result.completion_rate == pytest.approx(1.0)

    def test_transient_failures_are_retried_to_completion(self, registry):
        config = CampaignConfig(
            n_nodes=1,
            fault_model=FaultModel(transient_failure_rate=0.2, seed=7),
            retry=RetryPolicy(max_attempts=8),
        )
        result = ParsingCampaign(config).run_parser(registry.get("pymupdf"), n_documents=80)
        assert result.documents_completed == 80
        assert result.documents_failed == 0
        assert result.attempts_retried > 0
        assert result.wasted_compute_seconds > 0

    def test_corrupted_documents_are_quarantined_not_retried_forever(self, registry):
        config = CampaignConfig(
            n_nodes=1,
            fault_model=FaultModel(corrupted_document_rate=0.15, seed=9),
            retry=RetryPolicy(max_attempts=3),
        )
        result = ParsingCampaign(config).run_parser(registry.get("pymupdf"), n_documents=100)
        assert result.documents_failed > 0
        assert result.documents_completed + result.documents_failed == 100
        assert result.completion_rate < 1.0

    def test_no_retries_when_max_attempts_is_one(self, registry):
        config = CampaignConfig(
            n_nodes=1,
            fault_model=FaultModel(transient_failure_rate=0.3, seed=13),
            retry=RetryPolicy(max_attempts=1),
        )
        result = ParsingCampaign(config).run_parser(registry.get("pymupdf"), n_documents=60)
        assert result.attempts_retried == 0
        assert result.documents_failed > 0

    def test_faults_reduce_throughput(self, registry):
        clean = ParsingCampaign(CampaignConfig(n_nodes=1)).run_parser(
            registry.get("tesseract"), n_documents=48
        )
        faulty = ParsingCampaign(
            CampaignConfig(
                n_nodes=1,
                fault_model=FaultModel(transient_failure_rate=0.3, straggler_rate=0.2, seed=3),
                retry=RetryPolicy(max_attempts=5),
            )
        ).run_parser(registry.get("tesseract"), n_documents=48)
        assert faulty.throughput_docs_per_s < clean.throughput_docs_per_s
        assert faulty.documents_completed == 48

    def test_with_nodes_preserves_fault_configuration(self, registry):
        config = CampaignConfig(
            n_nodes=1, fault_model=FaultModel(transient_failure_rate=0.1), retry=RetryPolicy(max_attempts=2)
        )
        scaled = ParsingCampaign(config).with_nodes(4)
        assert scaled.config.fault_model == config.fault_model
        assert scaled.config.retry == config.retry
        assert scaled.config.n_nodes == 4
