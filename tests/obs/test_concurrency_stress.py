"""Concurrency stress tests for the obs substrate.

The engine runs a pipeline's steps on the caller's thread, but callers
may drive engines from several threads (and the serve daemon scores
chunks on a deadline thread); every one of them increments counters
and opens spans through the process-global registry and tracer.
These tests hammer both from many threads and assert *exact* totals -- a single lost update or torn read
fails the count.  The concurrency-safety analyzer proves
``repro.obs.metrics`` and ``repro.obs.spans`` lock-guarded statically;
this is the dynamic half of that claim.
"""

import threading

import pytest

from repro.obs import MetricsRegistry, RingBufferSink
from repro.obs.spans import Tracer

THREADS = 8
ROUNDS = 400


def hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N threads; re-raise the first failure."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [
        threading.Thread(target=run, args=(i,)) for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsUnderThreads:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(ROUNDS):
                registry.counter("hits").inc()

        hammer(worker)
        assert registry.counter("hits").value == THREADS * ROUNDS

    def test_get_or_create_returns_one_object(self):
        registry = MetricsRegistry()
        seen: list = []
        lock = threading.Lock()

        def worker(index):
            metric = registry.counter("shared")
            with lock:
                seen.append(metric)
            metric.inc()

        hammer(worker)
        assert len({id(m) for m in seen}) == 1
        assert registry.counter("shared").value == THREADS

    def test_labeled_family_children_are_not_duplicated(self):
        registry = MetricsRegistry()

        def worker(index):
            family = registry.counter("per_op", labelnames=("op",))
            for _ in range(ROUNDS):
                family.labels(op=f"op{index % 2}").inc()

        hammer(worker)
        family = registry.counter("per_op", labelnames=("op",))
        snapshot = family.snapshot()
        assert len(snapshot) == 2
        assert sum(snapshot.values()) == THREADS * ROUNDS

    def test_histogram_observations_all_land(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(ROUNDS):
                registry.histogram("lat").observe(1.0)

        hammer(worker)
        snap = registry.histogram("lat").snapshot()
        assert snap["count"] == THREADS * ROUNDS
        assert snap["sum"] == pytest.approx(THREADS * ROUNDS)

    def test_snapshot_never_tears_under_writers(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(index):
            while not stop.is_set():
                registry.counter("c").inc()
                registry.histogram("h").observe(2.0)

        pool = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for thread in pool:
            thread.start()
        try:
            for _ in range(200):
                snap = registry.snapshot()
                if "h" in snap and snap["h"]["count"]:
                    # mean of constant observations can never drift
                    assert snap["h"]["sum"] == pytest.approx(
                        2.0 * snap["h"]["count"]
                    )
        finally:
            stop.set()
            for thread in pool:
                thread.join()


class TestTracerUnderThreads:
    def test_span_stacks_are_thread_confined(self):
        tracer = Tracer()
        sink = RingBufferSink(capacity=None)
        tracer.add_sink(sink)

        def worker(index):
            for round_no in range(50):
                with tracer.span("outer", worker=index):
                    with tracer.span("inner", worker=index) as inner:
                        assert tracer.current_span() is inner
                assert tracer.current_span() is None

        hammer(worker)
        spans = [e for e in sink.events() if e["kind"] == "span"]
        assert len(spans) == THREADS * 50 * 2
        inners = [s for s in spans if s["name"] == "inner"]
        by_id = {s["span_id"]: s for s in spans}
        for inner in inners:
            # parentage never crosses threads: the inner span's parent
            # is an outer span opened by the same worker
            parent = by_id[inner["parent_id"]]
            assert parent["name"] == "outer"
            assert parent["attrs"]["worker"] == inner["attrs"]["worker"]

    def test_span_ids_stay_unique_across_threads(self):
        tracer = Tracer()
        sink = RingBufferSink(capacity=None)
        tracer.add_sink(sink)

        def worker(index):
            for _ in range(ROUNDS):
                with tracer.span("s"):
                    pass

        hammer(worker)
        spans = [e for e in sink.events() if e["kind"] == "span"]
        assert len(spans) == THREADS * ROUNDS
        assert len({s["span_id"] for s in spans}) == len(spans)

    def test_sink_churn_during_emission_does_not_tear(self):
        tracer = Tracer()
        keeper = RingBufferSink(capacity=None)
        tracer.add_sink(keeper)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                transient = RingBufferSink()
                tracer.add_sink(transient)
                tracer.remove_sink(transient)

        churner = threading.Thread(target=churn)
        churner.start()
        try:

            def worker(index):
                for _ in range(ROUNDS):
                    with tracer.span("churned"):
                        pass

            hammer(worker)
        finally:
            stop.set()
            churner.join()
        spans = [e for e in keeper.events() if e["kind"] == "span"]
        # the permanent sink saw every span exactly once
        assert len(spans) == THREADS * ROUNDS
