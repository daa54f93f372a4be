"""A malformed ``batch_result`` frame fails its run fast, with a BackendError.

A worker's frame carries counters and a phase table next to its results.
The coordinator reads the whole frame before it takes the shard off its
books; a field it cannot use makes the frame malformed, so the request
fails with ``malformed batch_result`` instead of hanging (a bad counter)
or escaping as a non-backend error (a bad phase table).
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.worker import WorkerDaemon
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, ParseRequest
from repro.pipeline.backends import BackendError

#: Well past a healthy 6-document run on one worker, well short of "forever".
JOIN_TIMEOUT_S = 30.0


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("cache_hits", None),
        ("phases", {"parse": 1.0}),
        ("phases", {"parse": {"self_s": "x"}}),
        ("phases", {"parse": {"self_s": float("nan")}}),
    ],
    ids=["counter-none", "row-not-a-table", "row-not-a-number", "row-nan"],
)
def test_malformed_frame_fails_the_run_fast(monkeypatch, field, value):
    build = protocol.batch_result_message

    def tampered(*args, **kwargs):
        message = build(*args, **kwargs)
        message[field] = value
        return message

    monkeypatch.setattr(protocol, "batch_result_message", tampered)
    futures = []
    submit = ClusterCoordinator.submit

    def recording_submit(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        futures.append(future)
        return future

    monkeypatch.setattr(ClusterCoordinator, "submit", recording_submit)
    registry = default_registry()
    worker = WorkerDaemon(name="tamper-worker", pipeline=ParsePipeline(registry)).start()
    outcome: dict[str, Exception] = {}

    def run() -> None:
        try:
            ParsePipeline(registry).run(
                ParseRequest(
                    parser="pymupdf",
                    source="synthetic:6?seed=4",
                    batch_size=3,
                    backend="remote",
                    backend_options={"workers": worker.address},
                )
            )
        except Exception as exc:  # noqa: BLE001 - the outcome is the assertion
            outcome["error"] = exc

    runner = threading.Thread(target=run, name="tamper-run", daemon=True)
    try:
        runner.start()
        runner.join(timeout=JOIN_TIMEOUT_S)
        blocked = runner.is_alive()
        # Release a hung run: its pool thread would otherwise keep the
        # interpreter from exiting after the test has failed.
        for future in futures:
            if not future.done:
                future.set_exception(ClusterError("abandoned by the test"))
        runner.join(timeout=JOIN_TIMEOUT_S)
    finally:
        worker.stop()
    assert not blocked, f"run still blocked after {JOIN_TIMEOUT_S}s"
    error = outcome.get("error")
    assert isinstance(error, BackendError), f"expected BackendError, got {error!r}"
    assert "malformed batch_result" in str(error)
