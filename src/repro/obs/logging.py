"""Structured logging for the daemons: NDJSON or text, always to stderr.

The library itself never configures handlers — every ``repro.*`` logger
hangs off one ``repro`` root that carries a ``NullHandler``, so
importing and instrumenting is silent by default.  Daemons opt in with
:func:`setup` (the CLI's ``--log-level`` / ``--log-json`` flags), which
installs a single stderr handler:

* text mode — ``2026-08-08T12:00:00 INFO repro.gateway submit ok
  ticket=t-1 trace=ab12...``;
* JSON mode — one NDJSON object per record with ``ts`` / ``level`` /
  ``logger`` / ``event`` plus every structured field.

Either way the active :class:`~repro.obs.tracing.TraceContext`'s trace
id is injected automatically, which is what lets a gateway operator grep
one trace id across client events, gateway logs and worker logs.

Keeping diagnostics on **stderr** is load-bearing: the daemon commands
promise that their machine-readable ready line is the only stdout
output, so pipe readers (the ``cluster`` spawner, CI smoke jobs) can
``readline()`` stdout without parsing around human chatter.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, IO

from repro.obs import tracing

__all__ = ["get_logger", "log_event", "setup"]

#: Every repro logger is a child of this root.
ROOT_LOGGER_NAME = "repro"

# Silence by default: library users who never call setup() see nothing,
# not logging's "no handler" warning.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


def get_logger(name: str = ROOT_LOGGER_NAME) -> logging.Logger:
    """A ``repro``-rooted logger (bare names are prefixed)."""
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


def _record_fields(record: logging.LogRecord) -> dict[str, Any]:
    fields = getattr(record, "repro_fields", None)
    return dict(fields) if isinstance(fields, dict) else {}


def _record_trace_id(record: logging.LogRecord) -> str | None:
    explicit = getattr(record, "trace_id", None)
    if explicit:
        return str(explicit)
    return tracing.current_trace_id()


class JsonFormatter(logging.Formatter):
    """One NDJSON object per record; structured fields merged flat."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        trace_id = _record_trace_id(record)
        if trace_id:
            payload["trace_id"] = trace_id
        for key, value in _record_fields(record).items():
            payload.setdefault(key, value)
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=False)


class TextFormatter(logging.Formatter):
    """Human-oriented single line: timestamp, level, logger, event, k=v."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(record.created))
        parts = [stamp, record.levelname, record.name, record.getMessage()]
        for key, value in _record_fields(record).items():
            parts.append(f"{key}={value}")
        trace_id = _record_trace_id(record)
        if trace_id:
            parts.append(f"trace={trace_id}")
        line = " ".join(str(part) for part in parts)
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def setup(
    level: str = "info",
    json_mode: bool = False,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Configure the ``repro`` root logger for a daemon process.

    Idempotent: calling again replaces the handler this function
    installed (flag flips in tests, re-exec in daemons) instead of
    stacking duplicates.  Returns the configured root logger.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(_LEVELS.get(str(level).lower(), logging.INFO))
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else TextFormatter())
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    for existing in list(logger.handlers):
        if getattr(existing, "_repro_obs_handler", False):
            logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.propagate = False
    return logger


def log_event(
    logger: logging.Logger, level: int | str, event: str, **fields: Any
) -> None:
    """Log ``event`` with structured ``fields`` (the preferred call shape:
    a stable event name plus k=v data, not a formatted sentence).

    ``level`` is a ``logging`` constant or its lowercase name.
    """
    if isinstance(level, str):
        level = _LEVELS.get(level.lower(), logging.INFO)
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"repro_fields": fields})
