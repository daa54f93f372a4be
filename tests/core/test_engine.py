"""Integration tests of the AdaParse engines and the training pipeline."""

from __future__ import annotations

import hashlib
import json
import typing

import numpy as np
import pytest

from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine, AdaParseFT, AdaParseLLM, RoutingSummary
from repro.core.training import AdaParseTrainer, TrainerSettings
from repro.documents.augment import strip_text_layers
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.metrics.bleu import bleu_score
from repro.ml.pretrain import PretrainConfig
from repro.ml.quality_model import FineTuneConfig
from repro.ml.transformer import TransformerConfig
from repro.parsers.base import Parser
from repro.parsers.registry import default_registry


@pytest.fixture(scope="module")
def training_corpus():
    return build_corpus(CorpusConfig(n_documents=24, seed=314, min_pages=3, max_pages=7))


@pytest.fixture(scope="module")
def fast_settings() -> TrainerSettings:
    return TrainerSettings(
        label_pages=2,
        encoder_config=TransformerConfig(
            vocab_size=512, max_length=48, d_model=24, n_heads=2, n_layers=1, d_ff=32, lora_rank=2
        ),
        finetune_config=FineTuneConfig(n_epochs=2, lora_only=False),
        pretrain=False,
        pretrain_config=PretrainConfig(n_sentences=50, n_epochs=1),
        fasttext_config=__import__("repro.ml.fasttext", fromlist=["FastTextConfig"]).FastTextConfig(
            embedding_dim=24, n_buckets=1 << 11, n_epochs=8
        ),
    )


@pytest.fixture(scope="module")
def seed11_corpus():
    return list(build_corpus(CorpusConfig(n_documents=200, seed=11)))


@pytest.fixture(scope="module")
def trained_ft(training_corpus, fast_settings):
    trainer = AdaParseTrainer(default_registry(), fast_settings)
    return trainer.train_ft(training_corpus)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaParseConfig(alpha=1.5)
        with pytest.raises(ValueError):
            AdaParseConfig(batch_size=0)
        with pytest.raises(ValueError):
            AdaParseConfig(improvement_margin=-0.1)

    def test_with_alpha(self):
        config = AdaParseConfig().with_alpha(0.2)
        assert config.alpha == 0.2
        assert config.default_parser == "pymupdf"


class TestEngineRouting:
    def test_budget_respected(self, trained_ft, training_corpus):
        documents = list(training_corpus)
        results, decisions = trained_ft.parse_with_telemetry(documents)
        assert len(results) == len(documents)
        summary = RoutingSummary(decisions=decisions)
        assert summary.fraction_routed() <= trained_ft.config.alpha + 1e-9

    def test_alpha_zero_never_routes(self, trained_ft, training_corpus):
        engine = type(trained_ft)(
            registry=trained_ft.registry,
            selector=trained_ft.selector,
            config=trained_ft.config.with_alpha(0.0),
            validator=trained_ft.validator,
            improvement_classifier=trained_ft.improvement_classifier,
        )
        _, decisions = engine.parse_with_telemetry(list(training_corpus))
        assert RoutingSummary(decisions=decisions).fraction_routed() == 0.0

    def test_results_follow_document_order(self, trained_ft, training_corpus):
        documents = list(training_corpus)
        results = trained_ft.parse_many(documents)
        assert [r.doc_id for r in results] == [d.doc_id for d in documents]
        assert all(r.parser_name == trained_ft.name for r in results)

    def test_missing_text_layer_routes_to_nougat(self, trained_ft, training_corpus):
        # parse(doc) is route_batch over a batch of one at α = 1, which has
        # one budget slot; at the trained α the cap floor(α·1) would be 0.
        stripped = strip_text_layers(training_corpus, fraction=1.0)
        doc = stripped[0]
        (result,), (decision,) = trained_ft.with_overrides(alpha=1.0).route_batch([doc])
        assert trained_ft.parse(doc) == result
        assert decision.stage == "cls1_invalid"
        assert decision.chosen_parser == "nougat"
        assert result.text.strip()  # Nougat recovers text despite the missing layer

    def test_usage_includes_selection_overhead(self, trained_ft, training_corpus):
        doc = training_corpus[0]
        engine_result = trained_ft.parse(doc)
        default_result = trained_ft.registry.get("pymupdf").parse(doc)
        assert engine_result.usage.cpu_seconds >= default_result.usage.cpu_seconds

    def test_quality_not_worse_than_default_on_average(self, trained_ft, training_corpus):
        documents = list(training_corpus)
        engine_results = trained_ft.parse_many(documents)
        default = trained_ft.registry.get("pymupdf")
        engine_bleu, default_bleu = [], []
        for doc, result in zip(documents, engine_results):
            gt = doc.ground_truth_text()
            engine_bleu.append(bleu_score(result.text, gt))
            default_bleu.append(bleu_score(default.parse(doc).text, gt))
        assert np.mean(engine_bleu) >= np.mean(default_bleu) - 0.01

    def test_counts_by_stage_consistent(self, trained_ft, training_corpus):
        _, decisions = trained_ft.parse_with_telemetry(list(training_corpus))
        counts = RoutingSummary(decisions=decisions).counts_by_stage()
        assert sum(counts.values()) == len(training_corpus)


class TestOneRoutingRule:
    """``parse(doc)`` is :meth:`route_batch` over a batch of one at α = 1:
    the same rule, CLS III scores gated by CLS II's probabilities included."""

    def test_parse_decides_as_route_batch_at_alpha_one(
        self, default_ft_engine, seed11_corpus
    ):
        one_slot = default_ft_engine.with_overrides(alpha=1.0)
        for doc in seed11_corpus:
            (expected,), _ = one_slot.route_batch([doc])
            assert default_ft_engine.parse(doc).to_json_dict() == expected.to_json_dict()

    def test_variants_need_a_selector(self, trained_ft):
        for variant in (AdaParseFT, AdaParseLLM):
            with pytest.raises(TypeError, match="selector"):
                variant(registry=trained_ft.registry)


class TestTypeHints:
    def test_public_methods_resolve(self):
        import repro.core.engine as engine_module

        for cls in (AdaParseEngine, Parser):
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    typing.get_type_hints(member, localns=vars(engine_module))


class TestDefaultEngineFingerprints:
    """The default FT engine's trained weights and routing configuration are
    pinned: cached routing decisions are keyed on ``config_fingerprint()``
    and every reproduced table comes out of these weights, so selector
    performance work (hashing, feature extraction) must leave both alone."""

    def test_weights_and_config_fingerprints_are_unchanged(self, default_ft_engine):
        predictor = default_ft_engine.selector.predictor
        assert predictor.weights_fingerprint() == "2df019a3435dc2ac065e4fd618c33ced"
        assert default_ft_engine.config_fingerprint() == "2c8b41446a60da3988515b84c2170089"

    def test_training_targets_are_unchanged(self, default_ft_dataset):
        """The per-parser BLEU labels of the default 80-document training
        corpus, bit for bit: what the weights above were fitted to, so a
        change to labelling (parsers, BLEU, the corpus) shows here first and
        a change to training alone shows only above."""
        targets = default_ft_dataset.targets
        assert targets.shape == (80, 6) and targets.dtype == np.float64
        assert hashlib.sha256(targets.tobytes()).hexdigest() == (
            "eec9514f403b6ec7102d46e5fc4301b397f7beeecd696d9e3c91cc61d69ee680"
        )


class TestDefaultEngineDecisionPins:
    """The default FT engine's routing decisions over a 200-document corpus,
    bit for bit: per-stage counts plus a sha256 of every decision's JSON
    view, for the rule itself (one ``route_batch``) and for the batched
    telemetry path.  Refactors of the engine must leave both alone."""

    COUNTS = {"accepted_default": 173, "budget_exhausted": 17, "cls1_invalid": 10}
    DIGEST = "e655ebe8f852b8d95b1db0d67cf8083bd35920d6f1f55473d8ff91d9e7678531"

    @staticmethod
    def digest(decisions) -> str:
        payload = json.dumps([d.to_json_dict() for d in decisions])
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_route_batch_decisions_are_unchanged(self, default_ft_engine, seed11_corpus):
        _, decisions = default_ft_engine.route_batch(seed11_corpus)
        assert RoutingSummary(decisions=decisions).counts_by_stage() == self.COUNTS
        assert self.digest(decisions) == self.DIGEST

    def test_parse_with_telemetry_decisions_are_unchanged(
        self, default_ft_engine, seed11_corpus
    ):
        _, decisions = default_ft_engine.parse_with_telemetry(seed11_corpus)
        assert RoutingSummary(decisions=decisions).counts_by_stage() == self.COUNTS
        assert self.digest(decisions) == self.DIGEST


class TestTrainerLLM:
    def test_train_llm_with_dpo(self, training_corpus, fast_settings):
        from repro.ml.dpo import PreferencePair

        trainer = AdaParseTrainer(default_registry(), fast_settings)
        pairs = [
            PreferencePair("d1", "clean robust catalyst analysis text", "c l e a n rbsout ctaalyst"),
            PreferencePair("d2", "the framework demonstrates results", "teh frmaework dmonstrtes"),
        ]
        engine = trainer.train_llm(training_corpus, preference_pairs=pairs)
        assert trainer.artifacts is not None
        assert trainer.artifacts.dpo_trainer is not None
        assert engine.config_fingerprint() == "8e6c46b20f38c65ef8e64bc3d3a1efdc"
        results, decisions = engine.parse_with_telemetry(list(training_corpus)[:6])
        assert len(results) == 6
        summary = RoutingSummary(decisions=decisions)
        assert summary.fraction_routed() <= engine.config.alpha + 1e-9

    def test_unknown_parser_names_rejected(self, trained_ft):
        with pytest.raises(KeyError):
            type(trained_ft)(
                registry=trained_ft.registry.subset(["pymupdf"]),
                selector=trained_ft.selector,
                config=trained_ft.config,
            )
