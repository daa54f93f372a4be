"""Pins of a default ``cluster`` run and of the remote backend's option values.

A run of ``cluster --workers 2 --documents 8 --batch-size 4 --seed 7`` spawns
two local worker processes and prints a summary.  Its ``n_succeeded``, the key
set of the summary's ``cluster`` block and a digest of the report's results
(page texts included) are pinned here, and so is what
``normalize_backend_spec("remote", ...)`` returns for one valid value of each
remote option.  Regenerate the pins with
``PYTHONPATH=src python tests/cluster/test_cluster_cli_pins.py`` only for a
deliberate change to what a run reports, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.pipeline.backends import normalize_backend_spec, validate_backend_spec
from repro.pipeline.pipeline import ParsePipeline

DEFAULT_RUN = [
    "cluster", "--workers", "2", "--documents", "8", "--batch-size", "4", "--seed", "7"
]

RESULTS_DIGEST = "aa115033f79c4823bec82e6014aac3d8f2056e358cb5b9b7e2c192e36b400009"

CLUSTER_KEYS = [
    "bytes_received",
    "bytes_sent",
    "doc_payloads_sent",
    "doc_refs_sent",
    "duplicate_results_ignored",
    "placement",
    "placement_relaxed",
    "remote_cache_hits",
    "remote_cache_misses",
    "shards_completed",
    "shards_failed",
    "shards_reassigned",
    "shards_rebalanced",
    "shards_replayed",
    "shards_submitted",
    "workers_alive",
    "workers_configured",
    "workers_draining",
    "workers_left",
    "workers_lost",
    "workers_seen",
]

#: One valid value of each remote option, as a spec or ``--backend-opt`` gives it.
REMOTE_OPTIONS = {
    "workers": "127.0.0.1:9101,127.0.0.1:9102",
    "window": 3,
    "placement": "balanced",
    "worker_cache": "off",
    "connect_timeout": 2.5,
    "heartbeat_interval": 0.25,
    "heartbeat_timeout": 10,
    "listen": 0,
    "ledger_dir": "campaign-ledger",
}


def run_default() -> tuple[dict, str]:
    """The printed summary and the digest of the results of one default run."""
    reports = []
    run = ParsePipeline.run

    def recording(self, request):
        reports.append(run(self, request))
        return reports[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(ParsePipeline, "run", recording)
        assert main(DEFAULT_RUN) == 0
    text = out.getvalue()
    summary = json.loads(text[text.index("{") :])
    (report,) = reports
    results = report.to_json_dict(include_text=True)["results"]
    view = json.dumps(results, sort_keys=True).encode("utf-8", "surrogatepass")
    return summary, hashlib.sha256(view).hexdigest()


def test_a_default_cluster_run_reports_the_pin():
    summary, digest = run_default()
    assert summary["n_succeeded"] == 8
    assert sorted(summary["cluster"]) == CLUSTER_KEYS
    assert digest == RESULTS_DIGEST


def test_each_remote_option_normalizes_to_itself():
    assert normalize_backend_spec("remote", REMOTE_OPTIONS) == ("remote", REMOTE_OPTIONS)
    validate_backend_spec("remote", REMOTE_OPTIONS)


if __name__ == "__main__":
    pinned_summary, pinned_digest = run_default()
    print(sorted(pinned_summary["cluster"]))
    print(pinned_digest)
