"""Regeneration of the paper's Tables 1–4.

All tables share an :class:`ExperimentContext`: a synthetic corpus with
train/validation/test splits, the parser registry, the simulated preference
study, and the two trained AdaParse engines.  Building the context is the
expensive part (it labels the training split and fine-tunes the selectors), so
benchmarks construct it once and reuse it across tables.

Absolute metric values differ from the paper (the substrate is a simulator,
not the authors' corpus and testbed); the quantities to compare are the
*orderings* and *relative gaps* described in DESIGN.md.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.cls3 import ParserSelector
from repro.core.config import LLM_VARIANT_CONFIG
from repro.core.engine import AdaParseFT, AdaParseLLM
from repro.core.training import AdaParseTrainer, TrainerSettings
from repro.documents.augment import (
    AugmentationConfig,
    degrade_image_layers,
    replace_text_layers_with_ocr,
)
from repro.documents.corpus import Corpus, CorpusConfig, benchmark_splits, build_corpus
from repro.evaluation.harness import EvaluationHarness, EvaluationReport, HarnessConfig
from repro.ml.datasets import QualityDataset, build_quality_dataset
from repro.ml.dpo import DPOConfig, DPOTrainer
from repro.ml.linear import RidgeRegression
from repro.ml.pretrain import PretrainConfig, pretrain_encoder_variant
from repro.ml.quality_model import FineTuneConfig, ParserQualityPredictor
from repro.ml.svc import LinearSVC
from repro.ml.features import MetadataFeaturizer
from repro.ml.transformer import TransformerConfig, TransformerEncoder
from repro.parsers.registry import ParserRegistry, default_registry
from repro.pipeline.pipeline import ParsePipeline
from repro.preferences.dataset import PreferenceDataset, build_preference_dataset
from repro.preferences.study import StudyConfig
from repro.utils.rng import rng_from
from repro.utils.tables import Table

#: Row ordering used by Table 1 (matches the paper).
TABLE1_ORDER = ["marker", "nougat", "pymupdf", "pypdf", "grobid", "tesseract", "adaparse_llm"]
TABLE2_ORDER = ["marker", "nougat", "tesseract", "adaparse_llm"]
TABLE3_ORDER = ["pymupdf", "pypdf", "adaparse_llm"]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of the reproduction experiments.

    The defaults are sized so the full table suite runs in minutes on a
    laptop; raise them for a closer analogue of the paper's 1 000-document
    held-out test set.
    """

    n_documents: int = 360
    study_pages: int = 90
    pretrain_sentences: int = 600
    finetune_epochs: int = 5
    seed: int = 2025


@dataclass
class ExperimentContext:
    """Shared state of the table experiments."""

    scale: ExperimentScale
    corpus: Corpus
    splits: dict[str, Corpus]
    registry: ParserRegistry
    trainer: AdaParseTrainer
    quality_dataset: QualityDataset
    preference_dataset: PreferenceDataset
    engine_ft: AdaParseFT
    engine_llm: AdaParseLLM
    test_dataset: QualityDataset | None = None
    #: Shared parsing facade; every table's harness runs through it.
    pipeline: ParsePipeline = field(default_factory=ParsePipeline)

    def harness(self, harness_config: HarnessConfig | None = None) -> EvaluationHarness:
        """An evaluation harness wired to the context's shared pipeline."""
        return EvaluationHarness(harness_config, pipeline=self.pipeline)


def trainer_settings_for_scale(scale: ExperimentScale) -> TrainerSettings:
    """Trainer hyper-parameters matched to the experiment scale."""
    return TrainerSettings(
        pretrain_config=PretrainConfig(n_sentences=scale.pretrain_sentences, n_epochs=1),
        finetune_config=FineTuneConfig(n_epochs=scale.finetune_epochs, lora_only=False),
    )


def build_experiment_context(scale: ExperimentScale | None = None) -> ExperimentContext:
    """Build the corpus, run the preference study, and train both engines."""
    scale = scale or ExperimentScale()
    corpus = build_corpus(CorpusConfig(n_documents=scale.n_documents, seed=scale.seed))
    splits = benchmark_splits(corpus)
    registry = default_registry()
    preference_dataset = build_preference_dataset(
        splits["train"], registry, StudyConfig(n_pages=scale.study_pages, seed=scale.seed + 1)
    )
    trainer = AdaParseTrainer(registry, trainer_settings_for_scale(scale))
    quality_dataset = trainer.build_dataset(splits["train"])
    engine_ft = trainer.train_ft(splits["train"], dataset=quality_dataset)
    engine_llm = trainer.train_llm(
        splits["train"], dataset=quality_dataset, preference_pairs=preference_dataset.train
    )
    pipeline = ParsePipeline(
        registry=registry,
        engines={engine_ft.name: engine_ft, engine_llm.name: engine_llm},
    )
    return ExperimentContext(
        scale=scale,
        corpus=corpus,
        splits=splits,
        registry=registry,
        trainer=trainer,
        quality_dataset=quality_dataset,
        preference_dataset=preference_dataset,
        engine_ft=engine_ft,
        engine_llm=engine_llm,
        pipeline=pipeline,
    )


def _evaluation_parsers(context: ExperimentContext, names: list[str]) -> list:
    parsers = []
    for name in names:
        if name == "adaparse_llm":
            parsers.append(context.engine_llm)
        elif name == "adaparse_ft":
            parsers.append(context.engine_ft)
        else:
            parsers.append(context.registry.get(name))
    return parsers


# --------------------------------------------------------------------------- #
# Tables 1–3
# --------------------------------------------------------------------------- #


def table1_born_digital(
    context: ExperimentContext, harness_config: HarnessConfig | None = None
) -> Table:
    """Table 1: accuracy on the unmodified (born-digital) held-out test set."""
    harness = context.harness(harness_config)
    parsers = _evaluation_parsers(context, TABLE1_ORDER)
    report = harness.evaluate(context.splits["test"], parsers)
    return report.to_table(
        "Table 1: Accuracy on born-digital PDFs (all values %)", parser_order=TABLE1_ORDER
    )


def table2_scanned(
    context: ExperimentContext,
    augmentation: AugmentationConfig | None = None,
    harness_config: HarnessConfig | None = None,
) -> Table:
    """Table 2: accuracy after degrading the image layer of 15 % of documents."""
    augmentation = augmentation or AugmentationConfig()
    augmented = degrade_image_layers(context.splits["test"], augmentation)
    harness = context.harness(harness_config)
    parsers = _evaluation_parsers(context, TABLE2_ORDER)
    report = harness.evaluate(augmented, parsers)
    return report.to_table(
        "Table 2: Accuracy on simulated scanned PDFs (all values %)", parser_order=TABLE2_ORDER
    )


def table3_degraded_text(
    context: ExperimentContext,
    augmentation: AugmentationConfig | None = None,
    harness_config: HarnessConfig | None = None,
) -> Table:
    """Table 3: accuracy after replacing 15 % of text layers with OCR output."""
    augmentation = augmentation or AugmentationConfig()
    augmented = replace_text_layers_with_ocr(context.splits["test"], augmentation)
    harness = context.harness(harness_config)
    parsers = _evaluation_parsers(context, TABLE3_ORDER)
    report = harness.evaluate(augmented, parsers)
    return report.to_table(
        "Table 3: Accuracy on PDFs with OCR-degraded text layers (all values %)",
        parser_order=TABLE3_ORDER,
    )


# --------------------------------------------------------------------------- #
# Table 4: selector-model comparison
# --------------------------------------------------------------------------- #


def _metadata_text(example_metadata) -> str:
    """Title + metadata rendered as text (input of the SPECTER/MiniLM rows)."""
    m = example_metadata
    return (
        f"{m.title}. publisher {m.publisher}. year {m.year}. producer {m.producer}. "
        f"format {m.pdf_format}. category {m.domain} {m.subcategory}. pages {m.n_pages}."
    )


def _small_encoder_config(seed: int) -> TransformerConfig:
    return TransformerConfig(
        vocab_size=2048, max_length=96, d_model=48, n_heads=4, n_layers=2, d_ff=96,
        lora_rank=4, seed=seed,
    )


def _train_text_predictor(
    parser_names: list[str],
    texts: list[str],
    targets: np.ndarray,
    pretrain_corpus: str,
    scale: ExperimentScale,
    seed: int,
) -> ParserQualityPredictor:
    encoder = TransformerEncoder(_small_encoder_config(seed), name=f"table4-{pretrain_corpus}-{seed}")
    pretrain_encoder_variant(
        encoder, pretrain_corpus, PretrainConfig(n_sentences=scale.pretrain_sentences, n_epochs=1, seed=seed)
    )
    predictor = ParserQualityPredictor(
        parser_names,
        backend="transformer",
        encoder=encoder,
        finetune_config=FineTuneConfig(n_epochs=scale.finetune_epochs, lora_only=False, seed=seed),
    )
    predictor.fit(texts, targets)
    return predictor


@dataclass
class SelectionStrategy:
    """A named way of choosing one parser per test document."""

    label: str
    group: str
    choose: object  # Callable[[int], str] — index into the test set → parser name


def _strategy_rows(
    context: ExperimentContext,
    strategies: list[SelectionStrategy],
    report: EvaluationReport,
    test_dataset: QualityDataset,
) -> list[dict[str, object]]:
    """Aggregate metrics of each selection strategy on the test split."""
    doc_index = {doc_id: i for i, doc_id in enumerate(report.doc_ids)}
    bleu = report.metric_matrix("bleu")
    rouge = report.metric_matrix("rouge")
    car = report.metric_matrix("car")
    parser_col = {name: j for j, name in enumerate(report.parser_names)}
    oracle_choice = bleu.argmax(axis=1)
    rows: list[dict[str, object]] = []
    for strategy in strategies:
        chosen_bleu, chosen_rouge, chosen_car, chosen_wr, correct = [], [], [], [], []
        for k, example in enumerate(test_dataset.examples):
            i = doc_index[example.doc_id]
            parser = strategy.choose(k)
            j = parser_col[parser]
            chosen_bleu.append(bleu[i, j])
            chosen_rouge.append(rouge[i, j])
            chosen_car.append(car[i, j])
            chosen_wr.append(report.win_rates.get(parser, 0.0))
            correct.append(1.0 if j == oracle_choice[i] else 0.0)
        rows.append(
            {
                "Features (Model)": strategy.label,
                "Group": strategy.group,
                "BLEU": float(np.mean(chosen_bleu)) * 100,
                "ROUGE": float(np.mean(chosen_rouge)) * 100,
                "CAR": float(np.mean(chosen_car)) * 100,
                "WR": float(np.mean(chosen_wr)) * 100,
                "ACC": float(np.mean(correct)) * 100,
            }
        )
    return rows


def table4_selector_models(
    context: ExperimentContext, harness_config: HarnessConfig | None = None
) -> Table:
    """Table 4: prediction-model comparison for parser selection."""
    scale = context.scale
    registry = context.registry
    test_split = context.splits["test"]
    # Per-document metrics of the six base parsers on the test split.  Table 1
    # scores the same pairs, so after it (at the same CAR cap) the harness's
    # memo scores none of them again.  The win rates come from this parser
    # set's own tournament.
    report = context.harness(harness_config).evaluate(test_split, list(registry))
    # Model inputs for the test split (default-parser text, metadata, labels).
    if context.test_dataset is None:
        context.test_dataset = build_quality_dataset(test_split, registry, label_pages=3)
    test_dataset = context.test_dataset
    train_dataset = context.quality_dataset
    parser_names = train_dataset.parser_names
    train_texts = train_dataset.texts
    train_targets = train_dataset.targets
    test_texts = test_dataset.texts

    strategies: list[SelectionStrategy] = []

    # --- CLS III: document-text models ---------------------------------- #
    scibert = _train_text_predictor(
        parser_names, train_texts, train_targets, "scientific", scale, seed=scale.seed + 11
    )
    scibert_choices = scibert.predict_best_parser(test_texts)
    strategies.append(
        SelectionStrategy("Text (SciBERT)", "CLS III: Document Text", lambda k, c=scibert_choices: c[k])
    )

    # SciBERT + DPO: clone the fine-tuned encoder, post-train with DPO, refit head.
    scibert_dpo = copy.deepcopy(scibert)
    if context.preference_dataset.train:
        dpo = DPOTrainer(scibert_dpo.encoder, DPOConfig(n_epochs=2))
        dpo.train(context.preference_dataset.train)
        scibert_dpo.fit(train_texts, train_targets, learning_rate=5e-4, n_epochs=2)
    dpo_choices = scibert_dpo.predict_best_parser(test_texts)
    strategies.insert(
        0,
        SelectionStrategy(
            "Text (SciBERT + DPO)", "CLS III: Document Text", lambda k, c=dpo_choices: c[k]
        ),
    )

    bert = _train_text_predictor(
        parser_names, train_texts, train_targets, "generic", scale, seed=scale.seed + 13
    )
    bert_choices = bert.predict_best_parser(test_texts)
    strategies.append(
        SelectionStrategy("Text (BERT)", "CLS III: Document Text", lambda k, c=bert_choices: c[k])
    )

    # --- CLS II: metadata/title text models ------------------------------ #
    train_meta_texts = [_metadata_text(m) for m in train_dataset.metadatas]
    test_meta_texts = [_metadata_text(m) for m in test_dataset.metadatas]
    train_title_texts = [m.title for m in train_dataset.metadatas]
    test_title_texts = [m.title for m in test_dataset.metadatas]

    specter_meta = _train_text_predictor(
        parser_names, train_meta_texts, train_targets, "scientific", scale, seed=scale.seed + 17
    )
    specter_meta_choices = specter_meta.predict_best_parser(test_meta_texts)
    strategies.append(
        SelectionStrategy(
            "Title + Metadata (SPECTER)", "CLS II: Metadata and Title Text",
            lambda k, c=specter_meta_choices: c[k],
        )
    )
    specter_title = _train_text_predictor(
        parser_names, train_title_texts, train_targets, "scientific", scale, seed=scale.seed + 19
    )
    specter_title_choices = specter_title.predict_best_parser(test_title_texts)
    strategies.append(
        SelectionStrategy(
            "Title (SPECTER)", "CLS II: Metadata and Title Text",
            lambda k, c=specter_title_choices: c[k],
        )
    )
    minilm_meta = _train_text_predictor(
        parser_names, train_meta_texts, train_targets, "generic", scale, seed=scale.seed + 23
    )
    minilm_choices = minilm_meta.predict_best_parser(test_meta_texts)
    strategies.append(
        SelectionStrategy(
            "Title + Metadata (MiniLM-L6)", "CLS II: Metadata and Title Text",
            lambda k, c=minilm_choices: c[k],
        )
    )

    # --- CLS I: metadata-only SVC baselines ------------------------------ #
    svc_variants = {
        "Format + Producer (SVC)": ("pdf_format", "producer"),
        "Format (SVC)": ("pdf_format",),
        "Year + Producer (SVC)": ("year", "producer"),
        "Publisher + (Sub-)category (SVC)": ("publisher", "domain", "subcategory"),
        "(Sub-)category (SVC)": ("domain", "subcategory"),
    }
    train_labels = train_dataset.best_parser_labels()
    for label, fields in svc_variants.items():
        featurizer = MetadataFeaturizer(fields=tuple(fields))
        svc = LinearSVC(n_classes=len(parser_names), n_epochs=20, seed=scale.seed)
        svc.fit(featurizer.extract_batch(train_dataset.metadatas), train_labels)
        predictions = svc.predict(featurizer.extract_batch(test_dataset.metadatas))
        choices = [parser_names[int(j)] for j in predictions]
        strategies.append(
            SelectionStrategy(label, "CLS I: Metadata", lambda k, c=choices: c[k])
        )

    # --- Reference selectors --------------------------------------------- #
    doc_index = {doc_id: i for i, doc_id in enumerate(report.doc_ids)}
    bleu = report.metric_matrix("bleu")
    rng = rng_from(scale.seed, "table4-random")
    oracle = [
        report.parser_names[int(bleu[doc_index[e.doc_id]].argmax())] for e in test_dataset.examples
    ]
    worst = [
        report.parser_names[int(bleu[doc_index[e.doc_id]].argmin())] for e in test_dataset.examples
    ]
    random_choices = [
        report.parser_names[int(rng.integers(0, len(report.parser_names)))]
        for _ in test_dataset.examples
    ]
    strategies.append(SelectionStrategy("BLEU-maximal selection", "Reference", lambda k, c=oracle: c[k]))
    strategies.append(SelectionStrategy("Random selection", "Reference", lambda k, c=random_choices: c[k]))
    strategies.append(SelectionStrategy("BLEU-minimal selection", "Reference", lambda k, c=worst: c[k]))

    rows = _strategy_rows(context, strategies, report, test_dataset)
    table = Table(
        title="Table 4: Evaluation of prediction models for parser selection (all values %)",
        columns=["Features (Model)", "Group", "BLEU", "ROUGE", "CAR", "WR", "ACC"],
    )
    for row in rows:
        table.add_row(row)
    return table
