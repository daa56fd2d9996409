"""Workload ``matrix``: the section 5 evaluation, as ``repro matrix`` runs it.

Each pass is ``BenchmarkRunner(seed).run_matrix`` over A00 and A05-A15
on F0, F4, P0 and P2: 48 cells, 24 same-dataset and 24 cross-dataset,
starting from a cleared engine cache.  Throughput is cells per
calibrated second of the median pass.  The seed is the runner's split
seed; the datasets are the registry's own.

Why this workload: model fit and predict dominate (A06's KitNET cells
take 0.9-1.4 s each), and cross cells reuse featurizations through the
engine's shared cache, so shared work and cache size show.  No pcap is
decoded.  The nPrint cells A01-A04 are left out: each takes 10-22 s,
almost all of it AutoML search, and one would outweigh the whole slice.
P1 is left out so that a run holds three passes of the slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.analysis
from common import (
    MATRIX_ALGORITHMS,
    HostSpeed,
    Outcome,
    Traced,
    digest,
    keep_measuring,
    span_fn,
    span_seconds,
    timed_attribute,
    traced_passes,
)
from repro.algorithms import build_algorithm
from repro.bench.runner import BenchmarkRunner
from repro.core import ExecutionEngine
from repro.datasets import load_dataset
from repro.ml import classification_summary
from repro.ml.model_selection import stratified_split_indices
from repro.obs import METRICS
from repro.obs import metrics as metric_names

ALGORITHMS = MATRIX_ALGORITHMS
DATASETS = ("F0", "F4", "P0", "P2")
WARMUP = ("A14", "F0", "F0")


@dataclass
class Slice:
    seed: int
    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]


def setup(seed: int, work: Path, tracer=None, *, algorithms=ALGORITHMS,
          datasets=DATASETS, warmup=WARMUP) -> Slice:
    """Generate the datasets, evaluate one warm-up cell, clear the cache."""
    span = span_fn(tracer)
    load_dataset.cache_clear()
    for dataset_id in datasets:
        with span("traffic.generate", dataset=dataset_id):
            load_dataset(dataset_id)
    with span("bench.evaluate", cell="/".join(warmup)):
        BenchmarkRunner(seed=seed).evaluate(*warmup)
    ExecutionEngine.shared_cache.clear()
    return Slice(seed, tuple(algorithms), tuple(datasets))


def _cell_name(cell) -> str:
    return "/".join(cell)


def check_store(store, cells) -> tuple[set, list[str]]:
    """Cells that failed or look wrong, and why.

    Beyond the runner's own failures: every cell must be present with
    precision, recall and f1 in [0, 1], and a cross cell must train on
    all units of its train dataset and test on all units of its test
    dataset, as counted by the same-dataset cells.
    """
    bad: set = set()
    problems = []
    for failure in store.failures:
        bad.add(failure.cell)
        problems.append(f"{_cell_name(failure.cell)}: {failure.error_type}: {failure.message}")
    by_cell = {r.cell: r for r in store.results}
    for cell in cells:
        if cell not in by_cell and cell not in bad:
            bad.add(cell)
            problems.append(f"{_cell_name(cell)}: no result")
    for r in store.results:
        wrong = [m for m in ("precision", "recall", "f1") if not 0.0 <= getattr(r, m) <= 1.0]
        if r.mode == "cross":
            train = by_cell.get((r.algorithm, r.train_dataset, r.train_dataset))
            test = by_cell.get((r.algorithm, r.test_dataset, r.test_dataset))
            if train is not None and r.n_train != train.n_train + train.n_test:
                wrong.append("n_train")
            if test is not None and r.n_test != test.n_train + test.n_test:
                wrong.append("n_test")
        if wrong:
            bad.add(r.cell)
            problems.append(f"{_cell_name(r.cell)}: implausible {', '.join(wrong)}")
    return bad, problems


def measure(sl: Slice, seconds: float, speed: HostSpeed) -> Outcome:
    """``run_matrix`` from a cleared cache on each pass."""
    out = Outcome()
    started = time.perf_counter()
    while keep_measuring(started, seconds, out):
        ExecutionEngine.shared_cache.clear()
        runner = BenchmarkRunner(seed=sl.seed)
        t0 = time.monotonic()
        store = runner.run_matrix(list(sl.algorithms), list(sl.datasets), keep_going=True)
        out.add_pass(speed, [(t0, time.monotonic())])
        cells = runner.matrix_cells(list(sl.algorithms), list(sl.datasets))
        out.work = len(cells)
        out.attempted += len(cells)
        bad, problems = check_store(store, cells)
        for r in store.results:
            cell_digest = digest(r.precision, r.recall, r.f1, r.n_train, r.n_test)
            name = _cell_name(r.cell)
            if name not in out.digests:
                out.digests[name] = cell_digest
            elif cell_digest != out.digests[name]:
                bad.add(r.cell)
                problems.append(f"{name}: result changed between passes")
        out.failed += len(bad)
        out.problems.extend(problems)
        out.detail.setdefault("cells", cells)
        out.detail.setdefault("results", {r.cell: r for r in store.results})
    out.extra = {
        "matrix_cells_per_hour": (3600 * out.throughput, "cells/h"),
        "matrix.cells": (out.work, "count"),
    }
    return out


def _rebuild(cell, engine, seed: int, test_size: float, tracer) -> dict:
    """One cell from public calls, as the runner evaluates it."""
    span = span_fn(tracer)
    algorithm_id, train_id, test_id = cell
    with span("bench.cell", cell=_cell_name(cell)):
        spec = build_algorithm(algorithm_id)
        with span("core.featurize", dataset=train_id):
            X, y = spec.featurize(load_dataset(train_id), engine, source_token=train_id)
        if train_id == test_id:
            with span("ml.split"):
                train, test = stratified_split_indices(y, test_size=test_size, seed=seed)
            X_train, y_train, X_test, y_test = X[train], y[train], X[test], y[test]
        else:
            X_train, y_train = X, y
            with span("core.featurize", dataset=test_id):
                X_test, y_test = spec.featurize(load_dataset(test_id), engine, source_token=test_id)
        with span("ml.build_model", algorithm=algorithm_id):
            model = spec.build_model()
        with span("ml.fit", algorithm=algorithm_id):
            model.fit(X_train, y_train)
        with span("ml.predict", algorithm=algorithm_id):
            predictions = np.asarray(model.predict(X_test))
        with span("ml.metrics"):
            return classification_summary(y_test, predictions)


def traced_pass(sl: Slice, tracer, outcome: Outcome) -> Traced:
    """Every cell rebuilt from public calls; each must equal the runner's."""
    test_size = BenchmarkRunner().test_size
    cells = outcome.detail["cells"]
    cache = ExecutionEngine.shared_cache
    evictions = METRICS.counter(metric_names.CACHE_EVICTIONS)

    def once(tracer):
        cache.clear()
        evicted = evictions.value
        engine = ExecutionEngine(track_memory=False)
        with timed_attribute(repro.analysis, "analyze_pipeline", tracer,
                             "analysis.analyze_pipeline"):
            rebuilt = {cell: _rebuild(cell, engine, sl.seed, test_size, tracer) for cell in cells}
        return rebuilt, {
            "core.cache_hit_ratio": cache.hits / max(1, cache.hits + cache.misses),
            "core.cache_evictions": evictions.value - evicted,
        }

    passes, result = traced_passes(tracer, "matrix", once)
    result.metrics = passes[0][1]
    for rebuilt, _ in passes:
        for cell, summary_ in rebuilt.items():
            result.attempted += 1
            expected = outcome.detail["results"].get(cell)
            if expected is None or any(
                float(summary_[m]) != getattr(expected, m) for m in ("precision", "recall", "f1")
            ):
                result.failed += 1
                result.problems.append(f"{_cell_name(cell)}: rebuilt cell differs from the runner")
    return result


def layer_metrics(events: list[dict], traced: Traced, outcome: Outcome) -> dict[str, float]:
    fits: dict[str, float] = {}
    for e in events:
        if e.get("kind") == "span" and e["name"] == "ml.fit":
            algorithm = e["attrs"]["algorithm"]
            fits[algorithm] = fits.get(algorithm, 0.0) + e["duration_seconds"]
    metrics = {
        "traffic.generate_s": sum(span_seconds(events, "traffic.generate")),
        "core.featurize_s": sum(span_seconds(events, "core.featurize")),
        "analysis.analyze_s": sum(span_seconds(events, "analysis.analyze_pipeline")),
        "analysis.calls": len(span_seconds(events, "analysis.analyze_pipeline")),
        "ml.fit_s": sum(fits.values()),
        "ml.predict_s": sum(span_seconds(events, "ml.predict")),
        "ml.metrics_s": sum(span_seconds(events, "ml.metrics")),
    }
    for algorithm in ALGORITHMS:
        metrics[f"ml.fit_s.{algorithm}"] = fits.get(algorithm, 0.0)
    return metrics
