"""Pins of how backend names and source kinds resolve, and how they refuse.

Literal names, option sets and refusal texts, as a caller sees them through
the public entry points (``create_backend``, ``validate_backend_spec``,
``ParseRequest``, ``validate_source_spec``, ``parse_source_arg``,
``create_source``).  How the two sets are stored behind those entry points
is not pinned; what a request, a stored spec or a CLI user meets is.
"""

from __future__ import annotations

import pytest

from repro.documents.sources import (
    SourceSpec,
    create_source,
    parse_source_arg,
    source_names,
    validate_source_spec,
)
from repro.pipeline import ParseRequest
from repro.pipeline.backends import (
    SerialBackend,
    backend_accepts_option,
    backend_names,
    create_backend,
    resolve_execution,
    validate_backend_spec,
)

THREAD_OPTIONS = ["n_jobs", "window"]
REMOTE_OPTIONS = [
    "connect_timeout",
    "heartbeat_interval",
    "heartbeat_timeout",
    "ledger_dir",
    "listen",
    "placement",
    "window",
    "worker_cache",
    "workers",
]
SYNTHETIC_OPTIONS = [
    "max_pages",
    "min_pages",
    "n_documents",
    "name",
    "scanned_fraction",
    "seed",
    "textgen",
]
SIMPDF_DIR_OPTIONS = ["directory", "glob", "path"]


def _refusal(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


class TestNames:
    def test_backend_names(self):
        assert backend_names() == ["remote", "serial", "thread"]

    def test_source_names(self):
        assert source_names() == ["simpdf-dir", "synthetic"]


class TestBackendOptions:
    @pytest.mark.parametrize(
        "name, options",
        [("serial", []), ("thread", THREAD_OPTIONS), ("remote", REMOTE_OPTIONS)],
    )
    def test_each_backend_takes_exactly_its_options(self, name, options):
        for option in options:
            assert backend_accepts_option(name, option), option
        assert not backend_accepts_option(name, "bogus")
        assert _refusal(create_backend, name, {"bogus": 1}) == (
            f"unknown option(s) ['bogus'] for backend {name!r}; known: {options}"
        )

    def test_auto_takes_n_jobs_only(self):
        assert backend_accepts_option("auto", "n_jobs")
        assert not backend_accepts_option("auto", "window")

    @pytest.mark.parametrize("name", ["async", "process", "hpc", "quantum"])
    def test_a_name_that_is_not_a_backend_takes_nothing(self, name):
        assert not backend_accepts_option(name, "n_jobs")

    def test_backends_are_built_with_their_options(self):
        with create_backend("serial") as serial:
            assert isinstance(serial, SerialBackend) and serial.workers == 1
        with create_backend("thread", {"n_jobs": 3, "window": 5}) as thread:
            assert thread.name == "thread" and thread.workers == 3

    def test_an_instance_is_passed_through_unowned(self):
        with SerialBackend() as backend:
            assert resolve_execution(backend) == (backend, False)


class TestBackendRefusals:
    def test_unknown_backend(self):
        assert _refusal(create_backend, "quantum") == (
            "unknown execution backend 'quantum'; known: ['remote', 'serial', 'thread']"
        )
        message = (
            "unknown execution backend 'quantum'; known: "
            "['auto', 'remote', 'serial', 'thread']"
        )
        assert _refusal(validate_backend_spec, "quantum") == message
        assert _refusal(ParseRequest, backend="quantum") == message

    @pytest.mark.parametrize(
        "name, options",
        [("serial", []), ("thread", THREAD_OPTIONS), ("remote", REMOTE_OPTIONS)],
    )
    def test_unknown_option(self, name, options):
        message = f"unknown option(s) ['bogus'] for backend {name!r}; known: {options}"
        assert _refusal(validate_backend_spec, name, {"bogus": 1}) == message
        assert _refusal(ParseRequest, backend=name, backend_options={"bogus": 1}) == message

    @pytest.mark.parametrize("alias", ["process", "async"])
    def test_unknown_option_on_an_accepted_name(self, alias):
        assert _refusal(validate_backend_spec, alias, {"bogus": 1}) == (
            f"unknown option(s) ['bogus'] for backend {alias!r}, an accepted name "
            f"for 'thread'; known: {THREAD_OPTIONS}"
        )

    def test_hpc_was_removed(self):
        assert _refusal(validate_backend_spec, "hpc") == (
            "execution backend 'hpc' was removed; project a run onto N cluster "
            "nodes with `python -m repro.cli scaling` (Figure 5)"
        )

    @pytest.mark.parametrize("options", [{"window": 2}, {"n_jobs": 1, "window": 2}])
    def test_auto_with_leftover_options(self, options):
        assert _refusal(validate_backend_spec, "auto", options) == (
            "backend 'auto' resolves to the serial backend without parallelism, "
            "but options ['window'] were given; name the backend explicitly "
            "(e.g. backend='thread')"
        )


class TestSourceOptions:
    @pytest.mark.parametrize(
        "kind, options",
        [("synthetic", SYNTHETIC_OPTIONS), ("simpdf-dir", SIMPDF_DIR_OPTIONS)],
    )
    def test_each_kind_takes_exactly_its_options(self, kind, options):
        assert _refusal(validate_source_spec, SourceSpec(kind, {"zzz": 1})) == (
            f"unknown option 'zzz' for source {kind!r}; known: {options}"
        )

    def test_the_shorthand_binds_each_kinds_primary_option(self):
        assert parse_source_arg("synthetic:4?seed=3") == SourceSpec(
            "synthetic", {"n_documents": 4, "seed": 3}
        )
        assert parse_source_arg("simpdf-dir:12?glob=**/*.simpdf") == SourceSpec(
            "simpdf-dir", {"path": "12", "glob": "**/*.simpdf"}
        )
        source = create_source(SourceSpec("simpdf-dir", {"directory": "corpus"}))
        assert source.spec() == SourceSpec("simpdf-dir", {"path": "corpus"})


class TestSourceRefusals:
    def test_unknown_kind_with_a_suggestion(self):
        message = (
            "unknown document source 'simpdf'; did you mean 'simpdf-dir'?; "
            "known: ['simpdf-dir', 'synthetic']"
        )
        assert _refusal(validate_source_spec, SourceSpec("simpdf", {})) == message
        assert _refusal(parse_source_arg, "simpdf:x") == message
        assert _refusal(parse_source_arg, "html-dir:x") == (
            "unknown document source 'html-dir'; known: ['simpdf-dir', 'synthetic']"
        )

    def test_misspelled_option_with_a_suggestion(self):
        assert _refusal(parse_source_arg, "synthetic:4?sed=3") == (
            "unknown option 'sed' for source 'synthetic'; did you mean 'seed'?; "
            f"known: {SYNTHETIC_OPTIONS}"
        )
        assert _refusal(
            validate_source_spec, SourceSpec("simpdf-dir", {"path": "x", "glbo": "*"})
        ) == (
            "unknown option 'glbo' for source 'simpdf-dir'; did you mean 'glob'?; "
            f"known: {SIMPDF_DIR_OPTIONS}"
        )

    def test_simpdf_dir_without_a_path(self):
        message = "source 'simpdf-dir' needs a 'path', e.g. simpdf-dir:corpus"
        assert _refusal(create_source, SourceSpec("simpdf-dir", {})) == message
        assert _refusal(ParseRequest, source="simpdf-dir:") == message
