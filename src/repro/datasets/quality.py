"""Record-level quality filtering of assembled datasets.

Training an LLM on badly parsed text is worse than training on less text
(Section 1 of the paper), so a parsing campaign's output passes through a
filter pipeline before it becomes a dataset.  Filters mirror the signals the
paper uses elsewhere: the CLS I junk-text statistics, the accepted-token BLEU
threshold, and simple length/failure rules.  Every rejection is attributed to
the filter and reason that caused it so that campaigns can audit their losses.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.cls1 import ValidationClassifier, ValidationConfig
from repro.datasets.records import ParsedRecord
from repro.metrics.accepted_tokens import DEFAULT_BLEU_THRESHOLD


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of one filter on one record."""

    accepted: bool
    reason: str = ""

    @classmethod
    def accept(cls) -> "FilterDecision":
        return cls(accepted=True)

    @classmethod
    def reject(cls, reason: str) -> "FilterDecision":
        return cls(accepted=False, reason=reason)


class RecordFilter(abc.ABC):
    """A single accept/reject rule over parsed records."""

    #: Short name used in rejection accounting.
    name: str = "filter"

    @abc.abstractmethod
    def decide(self, record: ParsedRecord) -> FilterDecision:
        """Judge one record."""

    def __call__(self, record: ParsedRecord) -> FilterDecision:
        return self.decide(record)


class ParseSucceededFilter(RecordFilter):
    """Rejects records whose parse failed outright."""

    name = "parse_succeeded"

    def decide(self, record: ParsedRecord) -> FilterDecision:
        if not record.succeeded:
            return FilterDecision.reject("parse failed")
        if not record.text.strip():
            return FilterDecision.reject("empty parse")
        return FilterDecision.accept()


class LengthFilter(RecordFilter):
    """Rejects records outside a token-count window.

    Very short parses are usually failed extractions; absurdly long ones are
    typically concatenation or repetition artefacts.
    """

    name = "length"

    def __init__(self, min_tokens: int = 50, max_tokens: int | None = 2_000_000) -> None:
        if min_tokens < 0:
            raise ValueError("min_tokens must be non-negative")
        if max_tokens is not None and max_tokens < min_tokens:
            raise ValueError("max_tokens must be at least min_tokens")
        self.min_tokens = min_tokens
        self.max_tokens = max_tokens

    def decide(self, record: ParsedRecord) -> FilterDecision:
        if record.n_tokens < self.min_tokens:
            return FilterDecision.reject(f"too short ({record.n_tokens} tokens)")
        if self.max_tokens is not None and record.n_tokens > self.max_tokens:
            return FilterDecision.reject(f"too long ({record.n_tokens} tokens)")
        return FilterDecision.accept()


class JunkTextFilter(RecordFilter):
    """Rejects records whose text fails the CLS I validity rules.

    Reuses :class:`repro.core.cls1.ValidationClassifier`: scrambled words,
    whitespace injection, and vocabulary-free text are rejected with the
    validator's own reasons.
    """

    name = "junk_text"

    def __init__(self, config: ValidationConfig | None = None) -> None:
        self.validator = ValidationClassifier(config)

    def decide(self, record: ParsedRecord) -> FilterDecision:
        verdict = self.validator.validate(record.text, n_pages=max(1, record.n_pages))
        if verdict.is_valid:
            return FilterDecision.accept()
        return FilterDecision.reject("; ".join(verdict.reasons) or "invalid text")


class QualityThresholdFilter(RecordFilter):
    """Rejects records whose quality estimate falls below a threshold.

    This is the accepted-token criterion applied at assembly time.  Records
    with no quality estimate are kept by default (their quality is unknown,
    not known-bad); set ``require_known=True`` for a stricter policy.
    """

    name = "quality_threshold"

    def __init__(
        self,
        threshold: float = DEFAULT_BLEU_THRESHOLD,
        require_known: bool = False,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = threshold
        self.require_known = require_known

    def decide(self, record: ParsedRecord) -> FilterDecision:
        if record.quality is None:
            if self.require_known:
                return FilterDecision.reject("no quality estimate")
            return FilterDecision.accept()
        if record.quality < self.threshold:
            return FilterDecision.reject(
                f"quality {record.quality:.2f} below threshold {self.threshold:.2f}"
            )
        return FilterDecision.accept()


@dataclass
class FilterReport:
    """Outcome of running a filter pipeline over a record collection."""

    accepted: list[ParsedRecord] = field(default_factory=list)
    rejected: list[tuple[ParsedRecord, str, str]] = field(default_factory=list)
    rejections_by_filter: Counter = field(default_factory=Counter)

    @property
    def n_input(self) -> int:
        return len(self.accepted) + len(self.rejected)

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of input records that survived every filter."""
        if self.n_input == 0:
            return 0.0
        return self.n_accepted / self.n_input

    def summary(self) -> dict[str, object]:
        """Headline numbers for logs and reports."""
        return {
            "n_input": self.n_input,
            "n_accepted": self.n_accepted,
            "acceptance_rate": round(self.acceptance_rate, 4),
            "rejections_by_filter": dict(self.rejections_by_filter),
        }


class FilterPipeline:
    """Applies filters in order; the first rejection wins."""

    def __init__(self, filters: Sequence[RecordFilter]) -> None:
        self.filters = list(filters)

    @classmethod
    def default(
        cls,
        quality_threshold: float = DEFAULT_BLEU_THRESHOLD,
        min_tokens: int = 50,
    ) -> "FilterPipeline":
        """The standard assembly pipeline: failures, length, junk text, quality."""
        return cls(
            [
                ParseSucceededFilter(),
                LengthFilter(min_tokens=min_tokens),
                JunkTextFilter(),
                QualityThresholdFilter(threshold=quality_threshold),
            ]
        )

    def decide(self, record: ParsedRecord) -> tuple[FilterDecision, str]:
        """Judge one record; returns the decision and the deciding filter's name."""
        for record_filter in self.filters:
            decision = record_filter.decide(record)
            if not decision.accepted:
                return decision, record_filter.name
        return FilterDecision.accept(), ""

    def apply(self, records: Iterable[ParsedRecord]) -> FilterReport:
        """Run the pipeline over a record collection."""
        report = FilterReport()
        for record in records:
            decision, filter_name = self.decide(record)
            if decision.accepted:
                report.accepted.append(record)
            else:
                report.rejected.append((record, filter_name, decision.reason))
                report.rejections_by_filter[filter_name] += 1
        return report
