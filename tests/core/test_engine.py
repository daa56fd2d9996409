"""Tests for the execution engine: caching, profiling, DCE, tracing."""

import numpy as np
import pytest

from repro.core import ExecutionEngine, Pipeline, PipelineError
from repro.core.engine import fingerprint_table


TEMPLATE = [
    {"func": "Groupby", "input": None, "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
     "list": ["count", "duration", "mean:length"]},
    {"func": "Labels", "input": ["flows"], "output": "y"},
]


@pytest.fixture(autouse=True)
def fresh_cache():
    ExecutionEngine.shared_cache.clear()
    yield
    ExecutionEngine.shared_cache.clear()


class TestExecution:
    def test_returns_requested_outputs(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        out = engine.run(
            Pipeline.from_template(TEMPLATE), small_trace, outputs=["X", "y"]
        )
        assert set(out) == {"X", "y"}
        assert len(out["X"]) == len(out["y"])

    def test_default_output_is_last_step(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        out = engine.run(Pipeline.from_template(TEMPLATE), small_trace)
        assert set(out) == {"y"}

    def test_missing_output_raises(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        with pytest.raises(KeyError):
            engine.run(
                Pipeline.from_template(TEMPLATE), small_trace,
                outputs=["nonexistent"],
            )

    def test_operation_failure_wrapped(self, small_trace):
        # statically well-typed, but the two feature matrices have
        # different row counts -- only the runtime can see that
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"]},
            {"func": "Groupby", "input": None, "output": "uni",
             "flowid": ["5tuple"]},
            {"func": "ApplyAggregates", "input": ["flows"], "output": "A",
             "list": ["count"]},
            {"func": "ApplyAggregates", "input": ["uni"], "output": "B",
             "list": ["count"]},
            {"func": "ConcatFeatures", "input": ["A", "B"], "output": "X"},
        ]
        engine = ExecutionEngine(track_memory=False)
        with pytest.raises(PipelineError) as info:
            engine.run(Pipeline.from_template(template), small_trace)
        assert info.value.operation == "ConcatFeatures"
        assert info.value.step == 4

    def test_operation_failure_chains_cause(self, small_trace):
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"]},
            {"func": "Groupby", "input": None, "output": "uni",
             "flowid": ["5tuple"]},
            {"func": "ApplyAggregates", "input": ["flows"], "output": "A",
             "list": ["count"]},
            {"func": "ApplyAggregates", "input": ["uni"], "output": "B",
             "list": ["count"]},
            {"func": "ConcatFeatures", "input": ["A", "B"], "output": "X"},
        ]
        engine = ExecutionEngine(track_memory=False)
        with pytest.raises(PipelineError) as info:
            engine.run(Pipeline.from_template(template), small_trace)
        # raised with `raise ... from cause`: the original failure is
        # both on the traceback chain and on the .cause attribute
        assert info.value.__cause__ is not None
        assert info.value.__cause__ is info.value.cause

    def test_bad_aggregate_caught_statically(self):
        # what used to be a runtime PipelineError is now rejected by
        # the static analyzer before anything executes
        from repro.core import TemplateDiagnosticError

        template = TEMPLATE[:1] + [
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["bogus:length"]},
        ]
        with pytest.raises(TemplateDiagnosticError) as info:
            Pipeline.from_template(template)
        assert "L018" in info.value.codes()


class TestCaching:
    def test_second_run_hits_cache(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        pipeline = Pipeline.from_template(TEMPLATE)
        engine.run(pipeline, small_trace, source_token="t")
        engine.run(pipeline, small_trace, source_token="t")
        cached = [p.cached for p in engine.last_report.profiles]
        assert all(cached)

    def test_prefix_shared_across_templates(self, small_trace):
        # Two different algorithms sharing a Groupby pay for it once.
        engine = ExecutionEngine(track_memory=False)
        other = TEMPLATE[:1] + [
            {"func": "FirstNPackets", "input": ["flows"], "output": "X",
             "n": 4},
        ]
        engine.run(Pipeline.from_template(TEMPLATE), small_trace, source_token="t")
        engine.run(Pipeline.from_template(other), small_trace, source_token="t")
        profiles = {p.operation: p.cached for p in engine.last_report.profiles}
        assert profiles["Groupby"] is True
        assert profiles["FirstNPackets"] is False

    def test_different_params_not_shared(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        variant = [dict(TEMPLATE[0], flowid=["5tuple"])] + TEMPLATE[1:]
        engine.run(Pipeline.from_template(TEMPLATE), small_trace, source_token="t")
        engine.run(Pipeline.from_template(variant), small_trace, source_token="t")
        profiles = {p.operation: p.cached for p in engine.last_report.profiles}
        assert profiles["Groupby"] is False

    def test_different_sources_not_shared(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        pipeline = Pipeline.from_template(TEMPLATE)
        engine.run(pipeline, small_trace, source_token="a")
        engine.run(pipeline, small_trace, source_token="b")
        assert not any(p.cached for p in engine.last_report.profiles)

    def test_cache_disabled(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(TEMPLATE)
        engine.run(pipeline, small_trace, source_token="t")
        engine.run(pipeline, small_trace, source_token="t")
        assert not any(p.cached for p in engine.last_report.profiles)

    def test_cached_results_identical(self, small_trace):
        engine = ExecutionEngine(track_memory=False)
        pipeline = Pipeline.from_template(TEMPLATE)
        first = engine.run(pipeline, small_trace, outputs=["X"], source_token="t")
        second = engine.run(pipeline, small_trace, outputs=["X"], source_token="t")
        assert np.array_equal(first["X"], second["X"])

    def test_fingerprint_stable_and_sensitive(self, small_trace):
        a = fingerprint_table(small_trace)
        assert a == fingerprint_table(small_trace)
        mutated = small_trace.select(np.arange(len(small_trace) - 1))
        assert fingerprint_table(mutated) != a

    def test_fingerprint_covers_dtype(self):
        # identical bytes, different schema: int32 zeros and float32
        # zeros serialize to the same buffer but are different traces
        from repro.net.table import PacketTable

        ints = PacketTable(columns={"a": np.zeros(8, dtype=np.int32)})
        floats = PacketTable(columns={"a": np.zeros(8, dtype=np.float32)})
        assert ints.columns["a"].tobytes() == floats.columns["a"].tobytes()
        assert fingerprint_table(ints) != fingerprint_table(floats)

    def test_fingerprint_covers_column_order(self):
        from repro.net.table import PacketTable

        a = np.arange(4, dtype=np.int64)
        b = np.arange(4, dtype=np.int64)
        ab = PacketTable(columns={"a": a, "b": b})
        ba = PacketTable(columns={"b": b, "a": a})
        assert fingerprint_table(ab) != fingerprint_table(ba)

    def test_cache_bounded(self, small_trace):
        cache = ExecutionEngine.shared_cache
        cache.max_entries = 4
        try:
            engine = ExecutionEngine(track_memory=False)
            pipeline = Pipeline.from_template(TEMPLATE)
            for i in range(5):
                engine.run(pipeline, small_trace, source_token=f"t{i}")
            assert len(cache) <= 4
        finally:
            cache.max_entries = 256


class TestProfilingAndMemory:
    def test_profile_covers_every_step(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=True)
        engine.run(Pipeline.from_template(TEMPLATE), small_trace)
        assert len(engine.last_report.profiles) == len(TEMPLATE)
        assert engine.last_report.total_seconds > 0

    def test_memory_tracked(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=True)
        engine.run(Pipeline.from_template(TEMPLATE), small_trace)
        assert engine.last_report.peak_memory_bytes > 0

    def test_hotspots_sorted(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        engine.run(Pipeline.from_template(TEMPLATE), small_trace)
        hotspots = engine.last_report.hotspots(top=2)
        assert len(hotspots) == 2
        assert hotspots[0].wall_seconds >= hotspots[1].wall_seconds

    def test_render_contains_operations(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        engine.run(Pipeline.from_template(TEMPLATE), small_trace)
        rendered = engine.last_report.render()
        assert "Groupby" in rendered
        assert "total:" in rendered

    def test_dead_values_dropped(self, small_trace):
        # 'flows' is last used at step 2; only the requested outputs
        # should survive; intermediate flows must have been freed.
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        out = engine.run(
            Pipeline.from_template(TEMPLATE), small_trace, outputs=["y"]
        )
        assert set(out) == {"y"}


class TestObservability:
    def _capture(self, fn):
        """Run ``fn`` with an unbounded sink on the global tracer."""
        from repro.obs import RingBufferSink, get_tracer

        sink = RingBufferSink(capacity=None)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            fn()
        finally:
            tracer.remove_sink(sink)
        return sink.events()

    def test_steps_attributed_to_run(self, small_trace):
        events = self._capture(lambda: ExecutionEngine(
            use_cache=False, track_memory=False,
        ).run(Pipeline.from_template(TEMPLATE), small_trace,
              outputs=["X", "y"]))
        spans = {e["span_id"]: e for e in events if e["kind"] == "span"}
        (run,) = [e for e in spans.values() if e["name"] == "run"]
        steps = [e for e in spans.values() if e["name"].startswith("step:")]
        assert [e["attrs"]["step"] for e in steps] == [0, 1, 2]
        for step in steps:
            assert step["parent_id"] == run["span_id"]
            assert "thread" in step["attrs"]

    def test_step_times_bounded_by_run_duration(self, small_trace):
        events = self._capture(lambda: ExecutionEngine(
            use_cache=False, track_memory=False
        ).run(Pipeline.from_template(TEMPLATE), small_trace))
        run = next(e for e in events if e["name"] == "run")
        step_total = sum(
            e["attrs"]["wall_seconds"] for e in events
            if e["kind"] == "span" and e["name"].startswith("step:")
        )
        assert 0 < step_total <= run["duration_seconds"]

    def test_metrics_after_cached_rerun(self, small_trace):
        from repro.obs import METRICS
        from repro.obs import metrics as metric_names

        engine = ExecutionEngine(track_memory=False)
        pipeline = Pipeline.from_template(TEMPLATE)
        engine.run(pipeline, small_trace, outputs=["X", "y"],
                   source_token="t")

        def counts():
            snap = METRICS.snapshot()
            return (snap.get(metric_names.CACHE_HITS, 0),
                    snap.get(metric_names.STEPS_EXECUTED, 0))

        hits_before, executed_before = counts()
        engine.run(pipeline, small_trace, outputs=["X", "y"],
                   source_token="t")
        hits_after, executed_after = counts()
        # second run: every cacheable step is a hit, nothing re-executes
        assert hits_after - hits_before >= len(TEMPLATE)
        assert executed_after == executed_before
        assert all(p.cached for p in engine.last_report.profiles)

    def test_cache_events_emitted(self, small_trace):
        events = self._capture(lambda: ExecutionEngine(
            track_memory=False
        ).run(Pipeline.from_template(TEMPLATE), small_trace,
              source_token="fresh-events"))
        names = {e["name"] for e in events if e["kind"] == "event"}
        assert "cache.miss" in names

    def test_profile_is_a_view_over_spans(self, small_trace):
        from repro.core.profiling import OperationProfile

        events = []
        engine = ExecutionEngine(use_cache=False, track_memory=False)

        def run():
            events.extend(self._capture(lambda: engine.run(
                Pipeline.from_template(TEMPLATE), small_trace)))

        run()
        step_spans = [e for e in events if e["name"].startswith("step:")]
        assert len(step_spans) == len(engine.last_report.profiles)
        for span_event, profile in zip(step_spans,
                                       engine.last_report.profiles):
            assert span_event["attrs"]["operation"] == profile.operation
            assert span_event["attrs"]["wall_seconds"] == profile.wall_seconds
        assert isinstance(engine.last_report.profiles[0], OperationProfile)

    def test_hotspots_tie_break_is_deterministic(self):
        from repro.core.profiling import OperationProfile, ProfileReport

        report = ProfileReport(profiles=[
            OperationProfile(step=2, operation="b", output_name="b",
                             wall_seconds=0.0, peak_memory_bytes=0),
            OperationProfile(step=0, operation="a", output_name="a",
                             wall_seconds=0.0, peak_memory_bytes=0),
            OperationProfile(step=1, operation="c", output_name="c",
                             wall_seconds=1.0, peak_memory_bytes=0),
        ])
        assert [p.step for p in report.hotspots(top=3)] == [1, 0, 2]

    def test_render_uses_human_units(self):
        from repro.core.profiling import OperationProfile, ProfileReport

        report = ProfileReport(profiles=[
            OperationProfile(step=0, operation="op", output_name="x",
                             wall_seconds=0.1,
                             peak_memory_bytes=3 * 1024 * 1024),
        ])
        rendered = report.render()
        assert "3.0 MiB" in rendered
        assert "peak 3.0 MiB" in rendered

    def test_thread_safe_cache_under_parallel_load(self, small_trace):
        """Hammer one cache from many engines; counters stay consistent.

        The engine runs steps on the caller's thread, but the cache is
        class-level: sequential engines driven from a caller-owned pool
        still share it across threads.
        """
        from concurrent.futures import ThreadPoolExecutor

        cache = ExecutionEngine.shared_cache
        pipeline = Pipeline.from_template(TEMPLATE)

        def run(_):
            ExecutionEngine(track_memory=False).run(
                pipeline, small_trace, outputs=["X", "y"], source_token="t")

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(run, range(8)))
        lookups = cache.hits + cache.misses
        # every run looks up each of the 3 cacheable outputs exactly once
        assert lookups == 8 * len(TEMPLATE)


class TestDiskCache:
    def test_arrays_survive_a_fresh_cache(self, small_trace, tmp_path):
        from repro.core.engine import _ResultCache

        pipeline = Pipeline.from_template(TEMPLATE)
        first_cache = _ResultCache(disk_dir=str(tmp_path))
        engine = ExecutionEngine(track_memory=False)
        old_cache = ExecutionEngine.shared_cache
        try:
            ExecutionEngine.shared_cache = first_cache
            first = engine.run(pipeline, small_trace, outputs=["X"],
                               source_token="t")
            # simulate a new process: fresh in-memory cache, same dir
            ExecutionEngine.shared_cache = _ResultCache(disk_dir=str(tmp_path))
            second = engine.run(pipeline, small_trace, outputs=["X"],
                                source_token="t")
            assert ExecutionEngine.shared_cache.disk_hits >= 1
            assert np.array_equal(first["X"], second["X"])
        finally:
            ExecutionEngine.shared_cache = old_cache

    def test_disk_files_are_arrays_only(self, small_trace, tmp_path):
        from repro.core.engine import _ResultCache

        old_cache = ExecutionEngine.shared_cache
        try:
            ExecutionEngine.shared_cache = _ResultCache(disk_dir=str(tmp_path))
            engine = ExecutionEngine(track_memory=False)
            engine.run(Pipeline.from_template(TEMPLATE), small_trace,
                       outputs=["X"], source_token="t")
            files = list(tmp_path.glob("*.npz"))
            # X and y persist; the FlowTable intermediate does not
            assert 1 <= len(files) <= 3
        finally:
            ExecutionEngine.shared_cache = old_cache

    def test_corrupt_disk_entry_is_ignored(self, small_trace, tmp_path):
        from repro.core.engine import _ResultCache

        old_cache = ExecutionEngine.shared_cache
        try:
            ExecutionEngine.shared_cache = _ResultCache(disk_dir=str(tmp_path))
            engine = ExecutionEngine(track_memory=False)
            pipeline = Pipeline.from_template(TEMPLATE)
            engine.run(pipeline, small_trace, outputs=["X"], source_token="t")
            for path in tmp_path.glob("*.npz"):
                path.write_bytes(b"not a real npz file")
            ExecutionEngine.shared_cache = _ResultCache(disk_dir=str(tmp_path))
            out = engine.run(pipeline, small_trace, outputs=["X"],
                             source_token="t")
            assert len(out["X"]) > 0  # recomputed, no crash
        finally:
            ExecutionEngine.shared_cache = old_cache
