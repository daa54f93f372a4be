"""Fault injection for parsing campaigns.

Section 2.4 of the paper calls for a *resilient* infrastructure: corpora at
the 100-million-PDF scale contain corrupted files, parsers crash or hang on
pathological inputs, and stragglers dominate tail latency.  This module models
those failure modes so that the executor's retry/quarantine behaviour can be
exercised and measured:

* **corrupted documents** fail deterministically on every attempt (the PDF is
  broken; retrying cannot help) and end up quarantined;
* **transient failures** (OOM, flaky I/O, worker restarts) fail an attempt but
  succeed when retried;
* **stragglers** run but take a multiple of their nominal time.

All decisions are pure functions of ``(seed, doc_id, attempt)`` so campaigns
remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.rng import rng_from

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hpc.workload import ParseTask

#: Possible outcomes of one task attempt.
ATTEMPT_OUTCOMES = ("success", "transient_failure", "permanent_failure")


@dataclass(frozen=True)
class FaultModel:
    """Rates and magnitudes of the injected faults.

    Attributes
    ----------
    corrupted_document_rate:
        Fraction of documents that can never be parsed (permanent failures).
    transient_failure_rate:
        Per-attempt probability that a healthy document's attempt fails for a
        transient reason.
    straggler_rate:
        Fraction of attempts that run as stragglers.
    straggler_multiplier:
        Runtime multiplier applied to straggler attempts.
    seed:
        Root seed of all fault decisions.
    """

    corrupted_document_rate: float = 0.0
    transient_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_multiplier: float = 4.0
    seed: int = 911

    def __post_init__(self) -> None:
        for name in ("corrupted_document_rate", "transient_failure_rate", "straggler_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.straggler_multiplier < 1.0:
            raise ValueError("straggler_multiplier must be at least 1")


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to failed attempts.

    Attributes
    ----------
    max_attempts:
        Total attempts per document (1 = no retries).
    quarantine_permanent_failures:
        Whether permanently failing documents are recorded as quarantined
        (they always stop consuming attempts once identified).
    """

    max_attempts: int = 3
    quarantine_permanent_failures: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


@dataclass(frozen=True)
class AttemptOutcome:
    """Fault decision for one attempt of one task."""

    outcome: str
    runtime_multiplier: float = 1.0

    @property
    def succeeded(self) -> bool:
        return self.outcome == "success"

    @property
    def is_permanent(self) -> bool:
        return self.outcome == "permanent_failure"


class FaultInjector:
    """Draws per-attempt fault decisions from a :class:`FaultModel`."""

    def __init__(self, model: FaultModel) -> None:
        self.model = model

    # ------------------------------------------------------------------ #
    def document_is_corrupted(self, task: "ParseTask") -> bool:
        """Whether the document behind ``task`` is permanently unparseable."""
        if self.model.corrupted_document_rate <= 0:
            return False
        rng = rng_from(self.model.seed, "corrupted", task.doc_id)
        return bool(rng.random() < self.model.corrupted_document_rate)

    def attempt_outcome(self, task: "ParseTask", attempt: int) -> AttemptOutcome:
        """Fault decision of attempt number ``attempt`` (1-based) of ``task``."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        if self.document_is_corrupted(task):
            return AttemptOutcome(outcome="permanent_failure")
        rng = rng_from(self.model.seed, "attempt", task.doc_id, attempt)
        multiplier = 1.0
        if self.model.straggler_rate > 0 and rng.random() < self.model.straggler_rate:
            multiplier = self.model.straggler_multiplier
        if self.model.transient_failure_rate > 0 and rng.random() < self.model.transient_failure_rate:
            return AttemptOutcome(outcome="transient_failure", runtime_multiplier=multiplier)
        return AttemptOutcome(outcome="success", runtime_multiplier=multiplier)
