"""Unit tests of trace ids: contexts, the wire form, the ambient trace."""

from __future__ import annotations

import contextvars
import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import TraceContext


class TestTraceContext:
    def test_new_contexts_are_unique(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id

    def test_trace_id_is_sixteen_hex_digits(self):
        trace_id = TraceContext.new().trace_id
        assert len(trace_id) == 16
        int(trace_id, 16)

    def test_wire_form_is_the_trace_id_alone(self):
        context = TraceContext("t1")
        assert context.to_json_dict() == {"trace_id": "t1"}

    def test_wire_round_trip(self):
        context = TraceContext.new()
        assert TraceContext.from_wire(context.to_json_dict()) == context

    @pytest.mark.parametrize(
        "payload",
        [None, "garbage", 42, [], {}, {"span_id": "x"}, {"trace_id": ""}],
    )
    def test_from_wire_tolerates_garbage(self, payload):
        assert TraceContext.from_wire(payload) is None

    def test_from_wire_ignores_an_older_peers_span_id(self):
        assert TraceContext.from_wire({"trace_id": "t1", "span_id": "s1"}) == (
            TraceContext("t1")
        )


class TestAmbientTrace:
    def test_activate_installs_and_restores(self):
        context = TraceContext.new()
        assert tracing.current_trace() is None
        with tracing.activate(context):
            assert tracing.current_trace_id() == context.trace_id
        assert tracing.current_trace() is None

    def test_nested_activate_restores_the_outer_trace(self):
        outer, inner = TraceContext.new(), TraceContext.new()
        with tracing.activate(outer):
            with tracing.activate(inner):
                assert tracing.current_trace() is inner
            assert tracing.current_trace() is outer

    def test_activate_restores_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with tracing.activate(TraceContext.new()):
                raise RuntimeError("boom")
        assert tracing.current_trace() is None

    def test_copied_context_carries_the_trace_into_a_thread(self):
        # What the thread backend does for every batch it hands a pool thread.
        context = TraceContext.new()
        seen = []
        with tracing.activate(context):
            copied = contextvars.copy_context()
        thread = threading.Thread(
            target=copied.run, args=(lambda: seen.append(tracing.current_trace_id()),)
        )
        thread.start()
        thread.join()
        assert seen == [context.trace_id]

    def test_a_fresh_thread_starts_without_a_trace(self):
        # Why the service re-activates a ticket's trace on its runner thread.
        seen = []
        with tracing.activate(TraceContext.new()):
            thread = threading.Thread(
                target=lambda: seen.append(tracing.current_trace_id())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_ensure_trace_adopts_the_active_trace(self):
        context = TraceContext.new()
        with tracing.activate(context):
            with tracing.ensure_trace() as ensured:
                assert ensured is context

    def test_ensure_trace_starts_a_root_trace(self):
        with tracing.ensure_trace() as ensured:
            assert ensured is not None
            assert tracing.current_trace() is ensured
        assert tracing.current_trace() is None

    def test_disabled_tracing_mints_no_trace_id(self):
        tracing.set_enabled(False)
        try:
            with tracing.ensure_trace() as ensured:
                assert ensured is None
                assert tracing.current_trace_id() is None
        finally:
            tracing.set_enabled(True)

    def test_disabled_tracing_keeps_an_active_trace(self):
        context = TraceContext.new()
        tracing.set_enabled(False)
        try:
            with tracing.activate(context), tracing.ensure_trace() as ensured:
                assert ensured is context
        finally:
            tracing.set_enabled(True)
