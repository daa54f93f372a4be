"""Pin of a ``remote`` report over two worker daemons that run two shards each.

A worker runs its shards on a pool of slot threads.  The pinned view of a
run over the 40-document SimPDF pool of ``tests/documents/test_simpdf_pins.py``
(results with page texts, decisions, usage, cache counters and the ``phases``
keys; no timings, addresses or paths) digests to :data:`REPORT_DIGEST` for
every worker build listed in :data:`WORKER_BUILDS`, so those builds differ in
nothing a report shows.  The digest was recorded while workers still ran
their shards on a nested execution backend, and a two-slot build and a
``backend="thread", backend_options={"n_jobs": 2}`` build both read it: a
worker that parses each shard on its own slot thread reports what those
did.  Regenerate the digest with ``python tests/cluster/test_slot_pool_pin.py``
only for a deliberate change to what a report holds, and say so.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.simpdf import SimPdfWriter
from repro.pipeline import ParsePipeline, ParseRequest

POOL_CONFIG = CorpusConfig(n_documents=40, seed=47)

#: Worker constructor options, by build name; every build pins to the digest.
WORKER_BUILDS = {
    "slots-2": {"slots": 2},
}

REPORT_DIGEST = "709d602a015e48b68044d2fb511c043bb0e516a086cb14dbdb5b1f1efdc587b3"


def write_pool(directory: Path) -> Path:
    writer = SimPdfWriter(directory)
    for document in build_corpus(POOL_CONFIG):
        writer.write(document)
    return directory


def pinned_view(payload: dict) -> str:
    """The timing-, address- and path-free part of a report's JSON, as text."""
    kept = {key: payload[key] for key in ("parser", "n_documents", "usage", "cache")}
    kept["results"] = payload["results"]
    kept["decisions"] = payload["decisions"]
    kept["phases"] = sorted(payload["phases"])
    return json.dumps(kept, sort_keys=True)


def remote_report_view(pool: Path, **worker_options) -> str:
    workers = [
        WorkerDaemon(name=f"slot-pin-{i}", **worker_options).start() for i in range(2)
    ]
    try:
        report = ParsePipeline().run(
            ParseRequest(
                parser="pymupdf",
                source=f"simpdf-dir:{pool}",
                batch_size=5,
                backend="remote",
                backend_options={"workers": ",".join(w.address for w in workers)},
            )
        )
    finally:
        for worker in workers:
            worker.stop()
    return pinned_view(report.to_json_dict(include_text=True))


def digest(view: str) -> str:
    return hashlib.sha256(view.encode("utf-8", "surrogatepass")).hexdigest()


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> Path:
    return write_pool(tmp_path_factory.mktemp("slot-pin-pool"))


@pytest.mark.parametrize("build", sorted(WORKER_BUILDS))
def test_two_workers_report_the_pin(pool, build):
    view = remote_report_view(pool, **WORKER_BUILDS[build])
    assert json.loads(view)["n_documents"] == POOL_CONFIG.n_documents
    assert digest(view) == REPORT_DIGEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pool_dir = write_pool(Path(scratch))
        views = {
            build: remote_report_view(pool_dir, **options)
            for build, options in WORKER_BUILDS.items()
        }
    assert len(set(views.values())) == 1, "the worker builds disagree"
    print(digest(next(iter(views.values()))))
