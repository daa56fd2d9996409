"""Engine benchmarks: per-operation profiling and the design ablations.

Covers the Section 3.2 engine claims:
* the execution engine reports time/memory per operation;
* intermediate-result sharing makes repeated featurization ~free;
* dead-value elimination bounds the live environment.
"""

import pytest

from bench_common import save_artifact

from repro.algorithms import build_algorithm
from repro.core import ExecutionEngine, Pipeline
from repro.datasets import load_dataset


TEMPLATE_ALGORITHM = "A10"
DATASET = "F0"


@pytest.fixture(scope="module")
def pipeline():
    spec = build_algorithm(TEMPLATE_ALGORITHM)
    return Pipeline.from_template(list(spec.feature_template))


@pytest.fixture(scope="module")
def table():
    return load_dataset(DATASET)


def test_featurization_cold(pipeline, table, benchmark):
    """The real per-dataset featurization cost (cache disabled)."""
    engine = ExecutionEngine(use_cache=False, track_memory=False)

    result = benchmark(
        engine.run, pipeline, table, outputs=["X", "y"], source_token=DATASET
    )
    assert result["X"].shape[0] == len(result["y"])


def test_featurization_cached(pipeline, table, benchmark):
    """Intermediate-result sharing: warm runs should be >10x faster."""
    engine = ExecutionEngine(track_memory=False)
    engine.run(pipeline, table, outputs=["X"], source_token=DATASET)  # warm

    benchmark(engine.run, pipeline, table, outputs=["X"],
              source_token=DATASET)
    assert all(p.cached for p in engine.last_report.profiles)


def test_cache_ablation_speedup(pipeline, table):
    import time

    cold_engine = ExecutionEngine(use_cache=False, track_memory=False)
    started = time.perf_counter()
    cold_engine.run(pipeline, table, outputs=["X"], source_token=DATASET)
    cold = time.perf_counter() - started

    warm_engine = ExecutionEngine(track_memory=False)
    warm_engine.run(pipeline, table, outputs=["X"], source_token=DATASET)
    started = time.perf_counter()
    warm_engine.run(pipeline, table, outputs=["X"], source_token=DATASET)
    warm = time.perf_counter() - started
    save_artifact(
        "engine_cache_ablation.txt",
        f"cold featurization: {cold:.4f}s\nwarm (cached): {warm:.4f}s\n"
        f"speedup: {cold / max(warm, 1e-9):.1f}x\n",
    )
    assert warm < cold / 5


def test_profile_report_artifact(pipeline, table):
    engine = ExecutionEngine(use_cache=False, track_memory=True)
    engine.run(pipeline, table, outputs=["X"], source_token=DATASET)
    report = engine.last_report
    save_artifact("engine_profile.txt", report.render())
    assert report.total_seconds > 0
    assert report.peak_memory_bytes > 0
    hotspots = report.hotspots(top=1)
    assert hotspots[0].operation in {"Groupby", "TimeSlice", "ApplyAggregates"}

