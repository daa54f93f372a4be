"""Token accounting and goodput.

The introduction of the paper argues that the right figure of merit for a
parsing campaign is *goodput*: accepted textual tokens produced per resource
unit, not raw documents per second.  This module aggregates token counts and
compute charges over parsed records and reports goodput per node-hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.datasets.records import ParsedRecord
from repro.metrics.accepted_tokens import DEFAULT_BLEU_THRESHOLD
from repro.utils.tables import Table

#: Reference node shape used for node-hour goodput (a Polaris node).
DEFAULT_NODE_CPU_CORES = 32
DEFAULT_NODE_GPUS = 4


@dataclass(frozen=True)
class TokenAccount:
    """Aggregate token and compute accounting of a record collection.

    Attributes
    ----------
    n_documents:
        Number of records accounted.
    n_tokens:
        Total parsed tokens.
    n_accepted_tokens:
        Tokens belonging to records whose quality clears the acceptance
        threshold (records with unknown quality contribute nothing here).
    cpu_seconds, gpu_seconds:
        Total compute charged across the records.
    threshold:
        Acceptance threshold used.
    """

    n_documents: int = 0
    n_tokens: int = 0
    n_accepted_tokens: int = 0
    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0
    threshold: float = DEFAULT_BLEU_THRESHOLD

    # ------------------------------------------------------------------ #
    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of all parsed tokens."""
        if self.n_tokens == 0:
            return 0.0
        return self.n_accepted_tokens / self.n_tokens

    @property
    def compute_seconds(self) -> float:
        """CPU plus GPU seconds."""
        return self.cpu_seconds + self.gpu_seconds

    def goodput_per_node_hour(
        self,
        cpu_cores: int = DEFAULT_NODE_CPU_CORES,
        gpus: int = DEFAULT_NODE_GPUS,
    ) -> float:
        """Accepted tokens per node-hour on a reference node.

        The node-hours consumed are estimated as the larger of the CPU-side
        and GPU-side occupancy (whichever resource is the bottleneck under
        perfect intra-node parallelism).
        """
        if cpu_cores < 1 or gpus < 1:
            raise ValueError("cpu_cores and gpus must be positive")
        cpu_node_hours = self.cpu_seconds / 3600.0 / cpu_cores
        gpu_node_hours = self.gpu_seconds / 3600.0 / gpus
        node_hours = max(cpu_node_hours, gpu_node_hours)
        if node_hours <= 0:
            return 0.0
        return self.n_accepted_tokens / node_hours

    def as_dict(self) -> dict[str, object]:
        """Headline numbers for reports."""
        return {
            "n_documents": self.n_documents,
            "n_tokens": self.n_tokens,
            "n_accepted_tokens": self.n_accepted_tokens,
            "acceptance_rate": round(self.acceptance_rate, 4),
            "cpu_seconds": round(self.cpu_seconds, 2),
            "gpu_seconds": round(self.gpu_seconds, 2),
            "goodput_per_node_hour": round(self.goodput_per_node_hour(), 1),
        }

    # ------------------------------------------------------------------ #
    def merged(self, other: "TokenAccount") -> "TokenAccount":
        """Combine two accounts (e.g. across shards or campaign partitions)."""
        if abs(self.threshold - other.threshold) > 1e-12:
            raise ValueError("cannot merge accounts with different thresholds")
        return TokenAccount(
            n_documents=self.n_documents + other.n_documents,
            n_tokens=self.n_tokens + other.n_tokens,
            n_accepted_tokens=self.n_accepted_tokens + other.n_accepted_tokens,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            gpu_seconds=self.gpu_seconds + other.gpu_seconds,
            threshold=self.threshold,
        )


def account_records(
    records: Iterable[ParsedRecord],
    threshold: float = DEFAULT_BLEU_THRESHOLD,
) -> TokenAccount:
    """Aggregate a record collection into a :class:`TokenAccount`."""
    n_documents = 0
    n_tokens = 0
    n_accepted = 0
    cpu_seconds = 0.0
    gpu_seconds = 0.0
    for record in records:
        n_documents += 1
        n_tokens += record.n_tokens
        cpu_seconds += record.cpu_seconds
        gpu_seconds += record.gpu_seconds
        if record.quality is not None and record.quality >= threshold:
            n_accepted += record.n_tokens
    return TokenAccount(
        n_documents=n_documents,
        n_tokens=n_tokens,
        n_accepted_tokens=n_accepted,
        cpu_seconds=cpu_seconds,
        gpu_seconds=gpu_seconds,
        threshold=threshold,
    )


def goodput_table(
    accounts: dict[str, TokenAccount],
    title: str = "Goodput: accepted tokens per resource unit",
) -> Table:
    """Tabulate token accounts of several parsers/engines side by side."""
    table = Table(
        title=title,
        columns=[
            "Parser",
            "Documents",
            "Tokens",
            "Accepted tokens",
            "Acceptance",
            "Tokens/node-hour",
        ],
    )
    for name, account in accounts.items():
        table.add_row(
            {
                "Parser": name,
                "Documents": account.n_documents,
                "Tokens": account.n_tokens,
                "Accepted tokens": account.n_accepted_tokens,
                "Acceptance": account.acceptance_rate * 100.0,
                "Tokens/node-hour": account.goodput_per_node_hour(),
            }
        )
    return table
