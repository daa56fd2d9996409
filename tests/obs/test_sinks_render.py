"""Tests for sinks (ring/JSONL round-trip) and the human renderers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    TreeRenderer,
    build_tree,
    format_bytes,
    read_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CHECKER = REPO_ROOT / "tools" / "check_trace.py"


class TestRingBuffer:
    def test_bounded_capacity_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for index in range(5):
            sink.emit({"kind": "event", "name": str(index)})
        assert [e["name"] for e in sink.events()] == ["2", "3", "4"]

    def test_unbounded(self):
        sink = RingBufferSink(capacity=None)
        for index in range(5000):
            sink.emit({"kind": "event", "name": str(index)})
        assert len(sink) == 5000

    def test_clear(self):
        sink = RingBufferSink()
        sink.emit({"kind": "event", "name": "x"})
        sink.clear()
        assert sink.events() == []


class TestJsonlRoundTrip:
    def test_write_parse_reconstruct_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("featurize", dataset="F0"):
            with tracer.span("run", source="t"):
                with tracer.span("step:Groupby", step=0):
                    pass
                with tracer.span("step:Labels", step=1):
                    pass
        events = read_trace(path)
        assert len(events) == 4
        roots, children = build_tree(events)
        assert [r["name"] for r in roots] == ["featurize"]
        run = children[roots[0]["span_id"]][0]
        steps = [e["name"] for e in children[run["span_id"]]]
        assert steps == ["step:Groupby", "step:Labels"]

    def test_non_json_values_survive_as_repr(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("s", weird={1, 2}):
            pass
        (event,) = read_trace(path)
        assert "1" in event["attrs"]["weird"]

    def test_lazy_open_writes_nothing_until_emitted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonlFileSink(path)
        assert not path.exists()

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_checker_accepts_real_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("run"):
            tracer.event("cache.hit", key="k")
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout

    def test_checker_rejects_step_outside_a_driver(self, tmp_path):
        path = tmp_path / "stray_step.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        resources = {"cpu_seconds": 0.0, "rss_peak_bytes": 1,
                     "gc_collections": 0}
        # the step closes (and is written) before its parent: the
        # checker must resolve the link after reading the whole file
        with tracer.span("run", source="t") as run:
            with tracer.span("wave", parent=run) as wave:
                with tracer.span("step:Labels", parent=wave, **resources):
                    pass
            with tracer.span("step:Groupby", parent=run, **resources):
                pass
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "step:Labels hangs under 'wave'" in proc.stdout
        assert "step:Groupby" not in proc.stdout
        assert "1 problem(s)" in proc.stdout

    def test_checker_rejects_schema_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "span", "name": 7}) + "\n")
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "missing field" in proc.stdout or "type" in proc.stdout

    def test_checker_accepts_stream_spans(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("run_stream", source="t", chunk_seconds=5.0) as run:
            with tracer.span("stream_chunk", parent=run, chunk=0,
                             rows=10, state_bytes=128):
                pass
            run.set("chunks", 1)
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout

    def test_checker_accepts_refused_stream_run(self, tmp_path):
        path = tmp_path / "refused.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("run_stream", source="t") as run:
            run.set("stream_refused", "Downsample:verdict:batch-only")
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout

    def test_checker_rejects_incomplete_stream_spans(self, tmp_path):
        path = tmp_path / "bad_stream.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        # stream_chunk without state_bytes; run_stream with neither a
        # refusal reason nor a chunk count
        with tracer.span("run_stream", source="t") as run:
            with tracer.span("stream_chunk", parent=run, chunk=0, rows=10):
                pass
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "state_bytes" in proc.stdout
        assert "run_stream" in proc.stdout

    def test_checker_rejects_empty_refusal_reason(self, tmp_path):
        path = tmp_path / "empty_refusal.jsonl"
        tracer = Tracer(sinks=[JsonlFileSink(path)])
        with tracer.span("run_stream", source="t") as run:
            run.set("stream_refused", "")
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "stream_refused" in proc.stdout

    def test_checker_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        proc = subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "empty" in proc.stdout


class TestFormatBytes:
    @pytest.mark.parametrize("count,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (1536, "1.5 KiB"),
        (8 * 1024 * 1024, "8.0 MiB"),
        (3 * 1024 ** 3, "3.0 GiB"),
        (2 * 1024 ** 4, "2.0 TiB"),
    ])
    def test_units(self, count, expected):
        assert format_bytes(count) == expected


class TestTreeRenderer:
    def _events(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("run", source="t"):
            with tracer.span("step:Groupby", cached=False,
                             peak_memory_bytes=2048):
                tracer.event("cache.miss", key="abc")
            with tracer.span("step:Labels", cached=True):
                pass
        return sink.events()

    def test_tree_shape_and_markers(self):
        text = TreeRenderer().render(self._events())
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert "├─ step:Groupby" in text
        assert "└─ step:Labels" in text
        assert "[cached]" in text
        assert "mem=2.0 KiB" in text

    def test_point_events_shown_on_request(self):
        events = self._events()
        assert "cache.miss" not in TreeRenderer().render(events)
        shown = TreeRenderer(show_events=True).render(events)
        assert "cache.miss" in shown
        assert "key=abc" in shown

    def test_orphan_spans_become_roots(self):
        events = [{
            "kind": "span", "name": "orphan", "span_id": 9,
            "parent_id": 4, "trace_id": 1, "ts": 0.0,
            "duration_seconds": 0.5, "status": "ok", "attrs": {},
        }]
        assert "orphan" in TreeRenderer().render(events)

    def test_empty_trace(self):
        assert TreeRenderer().render([]) == "(no spans)"

    def test_error_status_flagged(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("x")
        assert "!error" in TreeRenderer().render(sink.events())
