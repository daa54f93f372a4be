"""Golden digest of shard placement keys: the pin for placement and resume.

A shard's placement key picks its worker (rendezvous hashing) and, crossed
with the parser fingerprint, is its ledger key, so a ledger written by an
older coordinator resumes only while the keys hold still.  Two fixed requests
run on a one-worker cluster with a ledger: one by reference
(``synthetic:12?seed=5``) and one over twelve explicit documents, both in
batches of four.  The digest covers the placement keys the ledger recorded,
in shard order.  A change that claims placement is unchanged must not edit
it; a deliberate change regenerates it with
``python tests/cluster/test_placement_golden.py`` and says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents
from repro.utils.durable import JsonLines

PLACEMENT_DIGEST = "9ff2d03bf917ae13ad05f6f6709aeb5cbb8ba8770d47c643d309dd7b900d4c88"


def _requests() -> list[ParseRequest]:
    documents = build_corpus(CorpusConfig(n_documents=12, seed=11, min_pages=1, max_pages=2))
    return [
        ParseRequest(parser="pymupdf", source="synthetic:12?seed=5", batch_size=4),
        request_for_documents("pymupdf", documents.documents, batch_size=4),
    ]


def ledger_placement_keys(request: ParseRequest) -> list[str]:
    """The placement keys a one-worker, one-shard-at-a-time run records."""
    with tempfile.TemporaryDirectory() as ledger_dir:
        worker = WorkerDaemon(name="placement-golden").start()
        try:
            options = {"workers": worker.address, "window": 1, "ledger_dir": ledger_dir}
            ParsePipeline().run(
                dataclasses.replace(request, backend="remote", backend_options=options)
            )
        finally:
            worker.stop()
        records = JsonLines(Path(ledger_dir) / "ledger.jsonl")
        return [str(record["placement_key"]) for record, _ in records]


def placement_digest() -> str:
    digest = hashlib.sha256()
    for request in _requests():
        keys = ledger_placement_keys(request)
        assert len(keys) == 3
        digest.update("\n".join(keys).encode("ascii") + b"\n\n")
    return digest.hexdigest()


def test_placement_keys_match_golden_digest():
    assert placement_digest() == PLACEMENT_DIGEST


if __name__ == "__main__":
    print(f'PLACEMENT_DIGEST = "{placement_digest()}"')
