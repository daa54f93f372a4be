"""Training-dataset assembly from parsed documents.

The motivation of the paper is to turn large PDF collections into
high-quality, trillion-token-scale text datasets for LLM training.  This
subpackage implements that final stage of the pipeline:

* :mod:`repro.datasets.records` — the per-document record format produced by a
  parsing campaign (text, provenance, quality, resource usage).
* :mod:`repro.datasets.jsonl` — sharded JSONL serialisation with a manifest
  (the paper's workers write parsed text as JSONL files; see Figure 2).
* :mod:`repro.datasets.quality` — record-level quality filters (CLS I-style
  junk detection, length and quality thresholds) assembled into a pipeline.
* :mod:`repro.datasets.dedup` — exact and near-duplicate detection (MinHash +
  LSH over word shingles).
* :mod:`repro.datasets.tokens` — token accounting and goodput (accepted tokens
  per resource unit, the measure the introduction argues for).
* :mod:`repro.datasets.assembly` — the :class:`DatasetBuilder` that runs
  parse → filter → dedup → shard and reports what survived each stage.
"""

from repro.datasets.assembly import DatasetBuilder, DatasetBuildConfig, DatasetReport
from repro.datasets.dedup import (
    DedupReport,
    NearDuplicateDetector,
    content_fingerprint,
    exact_duplicate_groups,
    normalize_for_dedup,
)
from repro.datasets.jsonl import JsonlShardManifest, ShardedJsonlWriter, write_jsonl
from repro.datasets.quality import (
    FilterDecision,
    FilterPipeline,
    FilterReport,
    JunkTextFilter,
    LengthFilter,
    QualityThresholdFilter,
    RecordFilter,
)
from repro.datasets.records import ParsedRecord, record_from_parse
from repro.datasets.tokens import TokenAccount, account_records, goodput_table

__all__ = [
    "DatasetBuildConfig",
    "DatasetBuilder",
    "DatasetReport",
    "DedupReport",
    "FilterDecision",
    "FilterPipeline",
    "FilterReport",
    "JsonlShardManifest",
    "JunkTextFilter",
    "LengthFilter",
    "NearDuplicateDetector",
    "ParsedRecord",
    "QualityThresholdFilter",
    "RecordFilter",
    "ShardedJsonlWriter",
    "TokenAccount",
    "account_records",
    "content_fingerprint",
    "exact_duplicate_groups",
    "goodput_table",
    "normalize_for_dedup",
    "record_from_parse",
    "write_jsonl",
]
