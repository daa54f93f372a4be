"""Elastic cluster operations: live membership and checkpoint/resume.

:mod:`repro.cluster` runs a campaign over a **fixed** worker list; this
package makes that membership *live* and the campaign restartable:

* :mod:`repro.elastic.membership` — the
  :class:`~repro.elastic.membership.MembershipRegistry` a
  :class:`~repro.cluster.coordinator.ClusterCoordinator` keeps of every
  worker it has ever talked to (joins, graceful leaves, deaths), and the
  :class:`~repro.elastic.membership.MembershipListener` that lets
  ``worker --join`` daemons announce themselves to a *running*
  coordinator mid-campaign — the one way to add capacity mid-campaign.
* :mod:`repro.elastic.policy` — pure placement functions: capability-tag
  matching for heterogeneous placement.
* :mod:`repro.elastic.ledger` — the persisted
  :class:`~repro.elastic.ledger.ShardLedger` that makes campaigns
  restartable: completed shards are skipped exactly-once on ``--resume``.

Like :mod:`repro.cluster` and :mod:`repro.hpc`, nothing here is imported
by ``import repro`` — the package loads only when elastic features are
actually used.
"""

from __future__ import annotations

from typing import Any

_LAZY_EXPORTS = {
    "MembershipRegistry": "repro.elastic.membership:MembershipRegistry",
    "MembershipListener": "repro.elastic.membership:MembershipListener",
    "WorkerRecord": "repro.elastic.membership:WorkerRecord",
    "ShardLedger": "repro.elastic.ledger:ShardLedger",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
