"""Which parsers' shards ask for a GPU worker (no sockets, no clocks)."""

from __future__ import annotations

import pytest

from repro.cluster.backend import HEAVYWEIGHT_PARSERS, RemoteBackend
from repro.parsers.registry import default_registry


class _EmptyShard:
    """A settled shard future with no results and no phase table."""

    phases = None

    def result(self):
        return [], []


class _RecordingCoordinator:
    """Coordinator double: records each shard's ``gpu`` flag."""

    def __init__(self) -> None:
        self.gpu_flags: list[bool] = []

    def submit(self, spec, batch, gpu=False):
        self.gpu_flags.append(gpu)
        return _EmptyShard()


def submitted_gpu_flag(parser_name: str) -> bool:
    backend = RemoteBackend(workers="127.0.0.1:9")
    coordinator = _RecordingCoordinator()
    backend._coordinator = coordinator  # never dialled
    try:
        backend.site(default_registry().get(parser_name))([])
    finally:
        backend._coordinator = None
        backend.close()
    (gpu,) = coordinator.gpu_flags
    return gpu


class TestHeavyweightParsers:
    def test_the_heavyweight_parsers_are_nougat_and_marker(self):
        assert HEAVYWEIGHT_PARSERS == {"nougat", "marker"}

    @pytest.mark.parametrize("name", sorted(HEAVYWEIGHT_PARSERS))
    def test_heavyweight_parsers_want_gpu(self, name):
        assert submitted_gpu_flag(name) is True

    @pytest.mark.parametrize("name", ["pymupdf", "pypdf"])
    def test_lightweight_parsers_run_anywhere(self, name):
        assert submitted_gpu_flag(name) is False
