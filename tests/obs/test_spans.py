"""Tests for the tracer: nesting, attribution, events, global instance."""

import threading

import pytest

from repro.obs import RingBufferSink, Tracer, get_ring, get_tracer


@pytest.fixture()
def traced():
    sink = RingBufferSink()
    return Tracer(sinks=[sink]), sink


class TestNesting:
    def test_child_links_to_parent(self, traced):
        tracer, sink = traced
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.events()
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"] == outer["span_id"]

    def test_children_emitted_before_parent(self, traced):
        tracer, sink = traced
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in sink.events()]
        assert names == ["inner", "outer"]

    def test_siblings_share_parent(self, traced):
        tracer, sink = traced
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = sink.events()[:2]
        assert a["parent_id"] == b["parent_id"] == outer.span_id

    def test_separate_roots_get_separate_traces(self, traced):
        tracer, sink = traced
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = sink.events()
        assert first["trace_id"] != second["trace_id"]
        assert first["parent_id"] is None

    def test_explicit_parent_crosses_threads(self, traced):
        tracer, sink = traced
        with tracer.span("score_chunk") as score:
            # run the span wholly inside the worker thread
            def work():
                with tracer.span("stream_chunk", parent=score):
                    pass
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        chunk = next(e for e in sink.events() if e["name"] == "stream_chunk")
        assert chunk["parent_id"] == score.span_id
        assert chunk["trace_id"] == score.trace_id

    def test_thread_local_stacks_are_independent(self, traced):
        tracer, sink = traced
        seen = {}

        def work():
            seen["current"] = tracer.current_span()

        with tracer.span("outer"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        assert seen["current"] is None


class TestSpanContents:
    def test_duration_and_timestamp_recorded(self, traced):
        tracer, sink = traced
        with tracer.span("timed"):
            pass
        event = sink.events()[0]
        assert event["duration_seconds"] >= 0.0
        assert event["ts"] > 0

    def test_attributes_from_kwargs_and_set(self, traced):
        tracer, sink = traced
        with tracer.span("s", color="red") as span:
            span.set("count", 3)
        attrs = sink.events()[0]["attrs"]
        assert attrs == {"color": "red", "count": 3}

    def test_exception_marks_error_and_propagates(self, traced):
        tracer, sink = traced
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        event = sink.events()[0]
        assert event["status"] == "error"
        assert event["attrs"]["error"] == "ValueError"
        # the stack is clean afterwards
        assert tracer.current_span() is None

    def test_span_ids_increase_in_creation_order(self, traced):
        tracer, sink = traced
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = sink.events()
        assert a["span_id"] < b["span_id"]


class TestPointEvents:
    def test_event_under_current_span(self, traced):
        tracer, sink = traced
        with tracer.span("parent") as parent:
            tracer.event("cache.hit", key="k")
        event = next(e for e in sink.events() if e["kind"] == "event")
        assert event["span_id"] == parent.span_id
        assert event["attrs"] == {"key": "k"}

    def test_event_outside_any_span(self, traced):
        tracer, sink = traced
        tracer.event("lonely")
        event = sink.events()[0]
        assert event["span_id"] is None


class TestGlobalTracer:
    def test_singleton_with_ring_buffer(self):
        tracer = get_tracer()
        assert tracer is get_tracer()
        ring = get_ring()
        assert ring in tracer.sinks

    def test_sinks_can_be_detached(self):
        tracer = get_tracer()
        sink = RingBufferSink()
        tracer.add_sink(sink)
        tracer.remove_sink(sink)
        assert sink not in tracer.sinks
