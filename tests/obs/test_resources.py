"""Tests for resource telemetry (repro.obs.resources).

The probe itself (CPU/RSS/GC/allocation readings), its tracemalloc
ownership discipline, and the engine integration: every step, run and
wave span must carry the resource block the profiler and
``tools/check_trace.py`` rely on.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core import ExecutionEngine, Pipeline
from repro.obs import (
    JsonlFileSink,
    ResourceProbe,
    RingBufferSink,
    get_tracer,
    read_trace,
    rss_peak_bytes,
)
from repro.obs.spans import Span
from repro.traffic import AttackSpec, NetworkScenario


@pytest.fixture(scope="module")
def small_trace():
    scenario = NetworkScenario(
        name="resource-test",
        device_counts={"workstation": 2, "thermostat": 1},
        duration=30.0,
        seed=99,
        attacks=(AttackSpec("port_scan", 0.4, 0.7, intensity=0.2),),
    )
    return scenario.generate()

TEMPLATE = [
    {"func": "SortByTime", "input": None, "output": "sorted"},
    {"func": "ProtocolOneHot", "input": ["sorted"], "output": "X"},
    {"func": "Labels", "input": ["sorted"], "output": "y"},
]

REPO_ROOT = Path(__file__).resolve().parents[2]

STREAM_TEMPLATE = [
    {"func": "KitsuneFeatures", "input": None, "output": "X",
     "lambdas": [1.0, 0.1]},
    {"func": "Labels", "input": None, "output": "y"},
]


def capture(fn):
    """Run ``fn`` with an unbounded sink on the global tracer."""
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        fn()
    finally:
        tracer.remove_sink(sink)
    return sink.events()


class TestResourceProbe:
    def test_stop_reports_the_base_resources(self):
        probe = ResourceProbe().start()
        sum(i * i for i in range(50_000))  # burn some CPU
        resources = probe.stop()
        assert resources["cpu_seconds"] > 0
        assert resources["rss_peak_bytes"] > 0
        assert resources["gc_collections"] >= 0
        assert "alloc_bytes" not in resources

    def test_track_alloc_reports_allocation_deltas(self):
        probe = ResourceProbe(track_alloc=True).start()
        blob = [bytes(1024) for _ in range(512)]
        resources = probe.stop()
        assert resources["alloc_peak_bytes"] >= 512 * 1024
        assert isinstance(resources["alloc_bytes"], int)
        assert blob  # keep the allocation alive through stop()

    def test_probe_does_not_stop_foreign_tracemalloc(self):
        tracemalloc.start()
        try:
            probe = ResourceProbe(track_alloc=True).start()
            probe.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_owned_tracemalloc_is_stopped(self):
        assert not tracemalloc.is_tracing()
        probe = ResourceProbe(track_alloc=True).start()
        assert tracemalloc.is_tracing()
        probe.stop()
        assert not tracemalloc.is_tracing()

    def test_process_cpu_covers_thread_work(self):
        probe = ResourceProbe(cpu="process").start()
        sum(i * i for i in range(50_000))
        assert probe.stop()["cpu_seconds"] > 0

    def test_finish_attaches_attrs_to_a_span(self):
        span = Span(name="s", span_id=1, parent_id=None, trace_id=1,
                    started_unix=0.0)
        probe = ResourceProbe().start()
        resources = probe.finish(span)
        assert span.attributes["cpu_seconds"] == resources["cpu_seconds"]
        assert (span.attributes["rss_peak_bytes"]
                == resources["rss_peak_bytes"])
        assert (span.attributes["gc_collections"]
                == resources["gc_collections"])

    def test_rss_peak_is_positive_bytes(self):
        # larger than any plausible page-count reading, so the KiB
        # scaling on Linux is actually applied
        assert rss_peak_bytes() > 1024 * 1024


class TestEngineResourceSpans:
    def run_spans(self, small_trace, **engine_kwargs):
        events = capture(
            lambda: ExecutionEngine(use_cache=False, **engine_kwargs).run(
                Pipeline.from_template(TEMPLATE), small_trace,
                outputs=["X", "y"],
            )
        )
        return [e for e in events if e.get("kind") == "span"]

    def test_step_spans_carry_the_resource_block(self, small_trace):
        spans = self.run_spans(small_trace, track_memory=False)
        steps = [s for s in spans if s["name"].startswith("step:")]
        assert len(steps) == len(TEMPLATE)
        for span in steps:
            assert span["attrs"]["cpu_seconds"] >= 0
            assert span["attrs"]["rss_peak_bytes"] > 0
            assert span["attrs"]["gc_collections"] >= 0
            assert "alloc_peak_bytes" not in span["attrs"]

    def test_track_memory_adds_alloc_attrs(self, small_trace):
        spans = self.run_spans(small_trace, track_memory=True)
        steps = [s for s in spans if s["name"].startswith("step:")]
        for span in steps:
            assert isinstance(span["attrs"]["alloc_bytes"], int)
            assert span["attrs"]["alloc_peak_bytes"] >= 0

    def test_run_span_carries_process_resources(self, small_trace):
        spans = self.run_spans(small_trace, track_memory=False)
        run = next(s for s in spans if s["name"] == "run")
        assert run["attrs"]["cpu_seconds"] >= 0
        assert run["attrs"]["rss_peak_bytes"] > 0

    def test_wave_spans_carry_resources_in_parallel_mode(self, small_trace):
        spans = self.run_spans(
            small_trace, track_memory=False, parallel=True, max_workers=2
        )
        waves = [s for s in spans if s["name"] == "wave"]
        assert waves
        for span in waves:
            assert span["attrs"]["cpu_seconds"] >= 0
            assert span["attrs"]["rss_peak_bytes"] > 0

    def test_stream_steps_hang_off_their_chunk(self, small_trace, tmp_path):
        path = tmp_path / "stream.jsonl"
        sink = JsonlFileSink(path)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            ExecutionEngine(use_cache=False, track_memory=False).run_stream(
                Pipeline.from_template(STREAM_TEMPLATE), small_trace,
                chunk_seconds=10.0, outputs=["X", "y"],
            )
        finally:
            tracer.remove_sink(sink)
            sink.close()
        spans = [e for e in read_trace(path) if e.get("kind") == "span"]
        chunks = {s["span_id"] for s in spans if s["name"] == "stream_chunk"}
        steps = [s for s in spans if s["name"].startswith("step:")]
        assert len(steps) == len(STREAM_TEMPLATE) * len(chunks) > 0
        for span in steps:
            assert span["parent_id"] in chunks
            assert "cache_key" not in span["attrs"]
            assert span["attrs"]["cpu_seconds"] >= 0
        checker = REPO_ROOT / "tools" / "check_trace.py"
        proc = subprocess.run(
            [sys.executable, str(checker), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout

    def test_cached_steps_still_carry_resources(self, small_trace):
        def both_runs():
            engine = ExecutionEngine(use_cache=True, track_memory=False)
            pipeline = Pipeline.from_template(TEMPLATE)
            engine.run(pipeline, small_trace, outputs=["X", "y"],
                       source_token="t")
            engine.run(pipeline, small_trace, outputs=["X", "y"],
                       source_token="t")

        events = capture(both_runs)
        cached = [
            e for e in events
            if e.get("kind") == "span" and e["name"].startswith("step:")
            and e["attrs"].get("cached")
        ]
        assert cached
        for span in cached:
            assert span["attrs"]["cpu_seconds"] >= 0
            assert span["attrs"]["rss_peak_bytes"] > 0
