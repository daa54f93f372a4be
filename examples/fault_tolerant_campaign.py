"""Run a multi-node parsing campaign with injected faults and retries.

Large campaigns hit corrupted PDFs, transient worker failures, and stragglers
(Section 2.4 of the paper).  This example runs the cluster simulator with and
without fault injection and shows how the executor's retry/quarantine policy
keeps completion high at a modest throughput cost.

Run with::

    python examples/fault_tolerant_campaign.py
"""

from __future__ import annotations

from repro.hpc.campaign import CampaignConfig, ParsingCampaign
from repro.hpc.faults import FaultModel, RetryPolicy
from repro.parsers.registry import default_registry
from repro.utils.tables import Table


def run_campaigns() -> Table:
    """Compare a clean campaign to two fault-injected ones."""
    registry = default_registry()
    parser = registry.get("pymupdf")
    scenarios = {
        "fault-free": None,
        "transient failures (15%)": FaultModel(transient_failure_rate=0.15, seed=5),
        "corrupted (5%) + stragglers (10%)": FaultModel(
            corrupted_document_rate=0.05,
            straggler_rate=0.10,
            straggler_multiplier=5.0,
            seed=5,
        ),
    }
    table = Table(
        title="Campaign resilience (pymupdf, 8 nodes, 2400 documents)",
        columns=["scenario", "docs/s", "completion", "retries", "quarantined"],
    )
    for label, model in scenarios.items():
        config = CampaignConfig(n_nodes=8, fault_model=model, retry=RetryPolicy(max_attempts=4))
        result = ParsingCampaign(config).run_parser(parser, n_documents=2400)
        table.add_row(
            {
                "scenario": label,
                "docs/s": round(result.throughput_docs_per_s, 1),
                "completion": f"{result.completion_rate:.1%}",
                "retries": result.attempts_retried,
                "quarantined": result.documents_failed,
            }
        )
    return table


def main() -> None:
    print(run_campaigns().to_text())


if __name__ == "__main__":
    main()
