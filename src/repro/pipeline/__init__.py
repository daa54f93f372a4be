"""Unified parsing pipeline: ``ParseRequest`` in, ``ParseReport`` out.

This package is THE way to run parsing.  A frozen
:class:`~repro.pipeline.request.ParseRequest` (documents or corpus spec,
parser-or-engine name, batch size, α override, execution backend, seed)
goes into :meth:`~repro.pipeline.pipeline.ParsePipeline.run`; a
:class:`~repro.pipeline.report.ParseReport` (results, per-document routing
decisions, aggregate resource usage, wall time, throughput) comes out.

Example
-------
>>> from repro.pipeline import ParsePipeline, ParseRequest
>>> report = ParsePipeline().run(ParseRequest(parser="pymupdf", source="synthetic:20?seed=7"))
>>> report.n_documents
20
>>> report.summary()["parser"]
'pymupdf'

Execution is pluggable: ``ParseRequest.backend`` selects an
:class:`~repro.pipeline.backends.ExecutionBackend` by name (``serial``,
``thread``, ``hpc``, ``remote``, or ``auto``; ``async`` and ``process``
are accepted names for ``thread``) and ``ParseRequest.backend_options``
configures it; the report's
``execution`` block (:class:`~repro.pipeline.backends.ExecutionStats`)
records what the backend did.

The CLI subcommands, :class:`repro.datasets.assembly.DatasetBuilder`, and
:class:`repro.evaluation.harness.EvaluationHarness` are all built on this
facade, so improvements to the pipeline (sharding, caching, alternative
backends) reach every consumer at once.

Public names resolve lazily (PEP 562): importing this package does not pull
in the backend implementations (notably the HPC adapter's simulator stack)
until one is actually used.
"""

from __future__ import annotations

#: Public name → "module:attribute", resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "CachePolicy": "repro.cache:CachePolicy",
    "CacheStats": "repro.cache:CacheStats",
    "DEFAULT_BATCH_SIZE": "repro.pipeline.pipeline:DEFAULT_BATCH_SIZE",
    "ENGINE_VARIANTS": "repro.pipeline.pipeline:ENGINE_VARIANTS",
    "ExecutionBackend": "repro.pipeline.backends.base:ExecutionBackend",
    "ExecutionStats": "repro.pipeline.backends.base:ExecutionStats",
    "HPCBackend": "repro.pipeline.backends.hpc:HPCBackend",
    "ParseCache": "repro.cache:ParseCache",
    "ParsePipeline": "repro.pipeline.pipeline:ParsePipeline",
    "ParseReport": "repro.pipeline.report:ParseReport",
    "ParseRequest": "repro.pipeline.request:ParseRequest",
    "SerialBackend": "repro.pipeline.backends.serial:SerialBackend",
    "ThreadBackend": "repro.pipeline.backends.thread:ThreadBackend",
    "backend_names": "repro.pipeline.backends.base:backend_names",
    "create_backend": "repro.pipeline.backends.base:create_backend",
    "request_for_documents": "repro.pipeline.request:request_for_documents",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
