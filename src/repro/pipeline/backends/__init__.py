"""Pluggable execution backends of the parsing pipeline.

One :class:`ExecutionBackend` protocol, four implementations:

========= ==================================================================
name      execution
========= ==================================================================
serial    inline in the calling thread (reference; parity baseline)
thread    bounded thread-pool window sharing parent memory
hpc       inline parse + measured-usage replay on the simulated cluster
remote    repro.cluster worker daemons over TCP (multi-process/multi-host)
========= ==================================================================

Backends are selected by name through :class:`~repro.pipeline.ParseRequest`
(``backend="thread"``, ``backend_options={"n_jobs": 8}``), resolved via
the registry (:func:`create_backend`), or passed as instances to the
pipeline's methods.  ``"auto"`` picks serial, or thread when an
``{"n_jobs": N}`` option asks for parallelism; ``"async"`` and
``"process"`` are accepted names for ``thread``.  For CPU-bound work past
one core, use ``remote``.

Public names resolve lazily (PEP 562) so that importing this package — or
:mod:`repro.pipeline.backends.base` beneath it — does not pull in the
concrete backends (notably the HPC adapter's simulator stack) until a
backend is actually named or constructed.
"""

from __future__ import annotations

#: Public name → "module:attribute", resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "BackendError": "repro.pipeline.backends.base:BackendError",
    "BackendSpec": "repro.pipeline.backends.base:BackendSpec",
    "ExecutionBackend": "repro.pipeline.backends.base:ExecutionBackend",
    "ExecutionRecorder": "repro.pipeline.backends.base:ExecutionRecorder",
    "ExecutionStats": "repro.pipeline.backends.base:ExecutionStats",
    "HPCBackend": "repro.pipeline.backends.hpc:HPCBackend",
    "RemoteBackend": "repro.cluster.backend:RemoteBackend",
    "SerialBackend": "repro.pipeline.backends.serial:SerialBackend",
    "ThreadBackend": "repro.pipeline.backends.thread:ThreadBackend",
    "backend_accepts_option": "repro.pipeline.backends.base:backend_accepts_option",
    "backend_names": "repro.pipeline.backends.base:backend_names",
    "backend_specs": "repro.pipeline.backends.base:backend_specs",
    "create_backend": "repro.pipeline.backends.base:create_backend",
    "normalize_backend_spec": "repro.pipeline.backends.base:normalize_backend_spec",
    "register_backend": "repro.pipeline.backends.base:register_backend",
    "resolve_execution": "repro.pipeline.backends.base:resolve_execution",
    "validate_backend_spec": "repro.pipeline.backends.base:validate_backend_spec",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
