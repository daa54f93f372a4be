"""Unit tests of structured logging: setup idempotence, formats, trace ids."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import logging as obs_logging
from repro.obs import tracing
from repro.obs.logging import get_logger, log_event, setup
from repro.obs.tracing import TraceContext


@pytest.fixture()
def root():
    """The repro root logger, restored to library defaults afterwards."""
    logger = logging.getLogger(obs_logging.ROOT_LOGGER_NAME)
    saved_level, saved_propagate = logger.level, logger.propagate
    yield logger
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    logger.setLevel(saved_level)
    logger.propagate = saved_propagate


def test_get_logger_prefixes_bare_names():
    assert get_logger("gateway").name == "repro.gateway"
    assert get_logger("repro.cluster").name == "repro.cluster"
    assert get_logger().name == "repro"


def test_setup_is_idempotent(root):
    setup(stream=io.StringIO())
    setup(stream=io.StringIO())
    obs_handlers = [
        h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
    ]
    assert len(obs_handlers) == 1
    assert root.propagate is False


def test_json_mode_emits_ndjson_with_fields(root):
    stream = io.StringIO()
    setup(level="debug", json_mode=True, stream=stream)
    log_event(get_logger("test"), "info", "thing_happened", count=3, name="x")
    (line,) = stream.getvalue().splitlines()
    payload = json.loads(line)
    assert payload["event"] == "thing_happened"
    assert payload["level"] == "info"
    assert payload["logger"] == "repro.test"
    assert payload["count"] == 3
    assert payload["name"] == "x"
    assert "ts" in payload


def test_json_mode_injects_active_trace_id(root):
    stream = io.StringIO()
    setup(json_mode=True, stream=stream)
    context = TraceContext.new()
    with tracing.activate(context):
        log_event(get_logger("test"), "info", "traced")
    payload = json.loads(stream.getvalue())
    assert payload["trace_id"] == context.trace_id


def test_text_mode_appends_active_trace_id(root):
    stream = io.StringIO()
    setup(stream=stream)
    context = TraceContext.new()
    with tracing.activate(context):
        log_event(get_logger("test"), "info", "traced", ticket="t1")
    (line,) = stream.getvalue().splitlines()
    assert line.endswith(f"ticket=t1 trace={context.trace_id}")


def test_no_trace_id_without_an_active_trace(root):
    stream = io.StringIO()
    setup(json_mode=True, stream=stream)
    log_event(get_logger("test"), "info", "untraced")
    assert "trace_id" not in json.loads(stream.getvalue())


def test_record_trace_id_wins_over_the_active_trace(root):
    stream = io.StringIO()
    setup(json_mode=True, stream=stream)
    with tracing.activate(TraceContext.new()):
        get_logger("test").info("explicit", extra={"trace_id": "t-explicit"})
    assert json.loads(stream.getvalue())["trace_id"] == "t-explicit"


def test_text_mode_single_line_with_kv_pairs(root):
    stream = io.StringIO()
    setup(stream=stream)
    log_event(get_logger("test"), "warning", "watch_out", ticket="t1")
    (line,) = stream.getvalue().splitlines()
    assert "WARNING" in line
    assert "repro.test" in line
    assert "watch_out" in line
    assert "ticket=t1" in line


def test_log_event_accepts_int_and_string_levels(root):
    stream = io.StringIO()
    setup(level="warning", json_mode=True, stream=stream)
    logger = get_logger("test")
    log_event(logger, "debug", "suppressed")
    log_event(logger, logging.ERROR, "kept_int")
    log_event(logger, "error", "kept_str")
    events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
    assert events == ["kept_int", "kept_str"]


def test_level_filtering(root):
    stream = io.StringIO()
    setup(level="error", json_mode=True, stream=stream)
    log_event(get_logger("test"), "info", "quiet")
    assert stream.getvalue() == ""


def test_unconfigured_library_is_silent(capsys):
    # No setup(): the NullHandler swallows records without complaints.
    log_event(get_logger("silent"), "info", "nobody_listens")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""
