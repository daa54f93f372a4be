"""Unit tests of the shard ledger: durability, replay, corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.cluster.protocol import shard_placement_key
from repro.core.engine import RoutingDecision
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.cluster.ledger import ShardLedger, ledger_key
from repro.parsers.registry import default_registry


@pytest.fixture(scope="module")
def shard_output():
    """One real shard's wire-shaped output (results + decisions)."""
    registry = default_registry()
    parser = registry.get("pymupdf")
    corpus = build_corpus(CorpusConfig(n_documents=3, seed=7, min_pages=1, max_pages=2))
    documents = list(corpus)
    results = [r.to_json_dict() for r in parser.parse_many(documents)]
    decisions = [
        RoutingDecision(
            doc_id=d.doc_id, chosen_parser="pymupdf", stage="fixed"
        ).to_json_dict()
        for d in documents
    ]
    from repro.cache.keys import document_content_hash

    placement_key = shard_placement_key(
        [document_content_hash(d) for d in documents]
    )
    return placement_key, parser.config_fingerprint(), results, decisions


class TestLedgerKey:
    def test_combines_placement_and_fingerprint(self):
        assert ledger_key("abc", "f1") == "abc:f1"

    def test_distinct_configs_distinct_keys(self):
        assert ledger_key("abc", "f1") != ledger_key("abc", "f2")


class TestRecordAndReplay:
    def test_roundtrip_rehydrates_results_and_decisions(self, tmp_path, shard_output):
        placement_key, fingerprint, results, decisions = shard_output
        ledger = ShardLedger(tmp_path)
        assert ledger.completed_output(placement_key, fingerprint) is None
        ledger.record(placement_key, fingerprint, results, decisions, worker_id="w0")
        replay = ledger.completed_output(placement_key, fingerprint)
        assert replay is not None
        replayed_results, replayed_decisions = replay
        assert [r.to_json_dict() for r in replayed_results] == results
        assert [d.to_json_dict() for d in replayed_decisions] == decisions

    def test_absent_and_legacy_scores_replay_after_a_reopen(self, tmp_path, shard_output):
        placement_key, fingerprint, results, _ = shard_output
        scores = [None, 0.25, 0.0]  # unscored batch, scored, an older tree's 0.0
        decisions = [
            RoutingDecision(
                doc_id=r["doc_id"], chosen_parser="pymupdf", stage="accepted_default",
                predicted_improvement=score,
            ).to_json_dict()
            for r, score in zip(results, scores)
        ]  # fmt: skip
        ShardLedger(tmp_path).record(placement_key, fingerprint, results, decisions)
        assert '"predicted_improvement": null' in (tmp_path / "ledger.jsonl").read_text()
        replay = ShardLedger(tmp_path).completed_output(placement_key, fingerprint)
        assert replay is not None
        assert [d.predicted_improvement for d in replay[1]] == scores

    def test_persists_across_instances(self, tmp_path, shard_output):
        placement_key, fingerprint, results, decisions = shard_output
        ShardLedger(tmp_path).record(placement_key, fingerprint, results, decisions)
        reopened = ShardLedger(tmp_path)
        assert len(reopened) == 1
        assert ledger_key(placement_key, fingerprint) in reopened
        assert reopened.completed_output(placement_key, fingerprint) is not None

    def test_different_fingerprint_misses(self, tmp_path, shard_output):
        placement_key, fingerprint, results, decisions = shard_output
        ledger = ShardLedger(tmp_path)
        ledger.record(placement_key, fingerprint, results, decisions)
        # A changed parser config must re-run, never replay stale output.
        assert ledger.completed_output(placement_key, "other-config") is None
        assert ledger.completed_output("other-batch", fingerprint) is None

    def test_empty_directory_is_empty_ledger(self, tmp_path):
        ledger = ShardLedger(tmp_path / "never-created")
        assert len(ledger) == 0
        assert ledger.keys() == []

    def test_a_key_recorded_twice_reads_back_as_its_last_record(
        self, tmp_path, shard_output
    ):
        placement_key, fingerprint, results, decisions = shard_output
        ledger = ShardLedger(tmp_path)
        ledger.record(placement_key, fingerprint, results[:1], decisions[:1], worker_id="w0")
        ledger.record(placement_key, fingerprint, results, decisions, worker_id="w1")
        assert len(ledger.path.read_bytes().splitlines()) == 2
        reopened = ShardLedger(tmp_path)
        assert len(reopened) == 1
        replayed_results, _ = reopened.completed_output(placement_key, fingerprint)
        assert [r.to_json_dict() for r in replayed_results] == results


class TestCorruptionTolerance:
    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path, shard_output):
        placement_key, fingerprint, results, decisions = shard_output
        ledger = ShardLedger(tmp_path)
        ledger.record(placement_key, fingerprint, results, decisions)
        # A kill mid-append leaves a torn line at the tail.
        with ledger.path.open("ab") as handle:
            handle.write(b'{"key": "half-written...')
        reopened = ShardLedger(tmp_path)
        assert len(reopened) == 1
        assert reopened.completed_output(placement_key, fingerprint) is not None

    def test_record_after_a_torn_tail_survives_the_next_resume(
        self, tmp_path, shard_output
    ):
        # Three runs.  Run 1 records p1 and is killed while appending p2;
        # run 2 resumes and records p3; run 3 must replay p1 *and* p3 — p3
        # was fsynced and reported as recorded, so it must not be glued onto
        # the torn tail and skipped as corrupt.
        _, fingerprint, results, decisions = shard_output
        ShardLedger(tmp_path).record("p1", fingerprint, results, decisions)
        with (tmp_path / "ledger.jsonl").open("ab") as handle:
            handle.write(b'{"key": "p2:' + fingerprint.encode() + b'", "results": [{"pa')
        second = ShardLedger(tmp_path)
        assert second.keys() == [ledger_key("p1", fingerprint)]
        second.record("p3", fingerprint, results, decisions)
        third = ShardLedger(tmp_path)
        assert third.keys() == [ledger_key("p1", fingerprint), ledger_key("p3", fingerprint)]
        assert third.completed_output("p3", fingerprint) is not None

    def test_garbage_and_schema_less_lines_are_skipped(self, tmp_path, shard_output):
        placement_key, fingerprint, results, decisions = shard_output
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(
            b"not json at all\n"
            + json.dumps({"key": "k", "no_results": True}).encode() + b"\n"
        )
        ledger = ShardLedger(tmp_path)
        assert len(ledger) == 0
        # The file stays appendable after skipping bad lines.
        ledger.record(placement_key, fingerprint, results, decisions)
        assert len(ShardLedger(tmp_path)) == 1

