"""Tests for step identity (``repro.core.pipeline``).

One function answers "are two steps the same step?": the engine's cache
key and the equivalence analyzer's fingerprints are both
:func:`step_key` chains, and stream checkpoints record
:func:`step_token`.
"""

import pytest

from repro.algorithms import ALGORITHMS
from repro.analysis.equivalence import SOURCE_FINGERPRINT, canonicalize
from repro.analysis.safety import operation_report
from repro.core import ExecutionEngine, Pipeline
from repro.core.pipeline import SOURCE_NAME, step_key, step_token
from repro.obs import RingBufferSink, get_tracer


def chained_keys(pipeline, source_id):
    """``{step index: step_key}`` chained from ``source_id``."""
    keys = {SOURCE_NAME: source_id}
    by_index = {}
    for index, call in enumerate(pipeline.calls):
        keys[call.output] = by_index[index] = step_key(
            call.name, call.params,
            [keys[name] for name in call.inputs],
            operation_report(call.operation).seed_params,
        )
    return by_index


def test_step_token_is_the_checkpoint_spelling():
    assert step_token("KitsuneFeatures", {"lambdas": [1.0, 0.1]}) == (
        'KitsuneFeatures({"lambdas": [1.0, 0.1]})'
    )


def test_catalog_fingerprints_are_step_keys():
    covered = 0
    for algorithm_id in sorted(ALGORITHMS):
        template = ALGORITHMS[algorithm_id].full_template()
        graph = canonicalize(template, outputs=["metrics"])
        keys = chained_keys(
            Pipeline.from_template(template), SOURCE_FINGERPRINT
        )
        for step in graph.steps:
            for index in step.source_indices:
                assert keys[index] == step.fingerprint, (algorithm_id, index)
            covered += 1
    assert covered == 123


@pytest.mark.parametrize("algorithm_id", ["A00", "A13"])
def test_engine_cache_keys_are_step_keys(small_trace, algorithm_id):
    pipeline = Pipeline.from_template(
        [dict(step) for step in ALGORITHMS[algorithm_id].feature_template]
    )
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        ExecutionEngine(track_memory=False).run(
            pipeline, small_trace, source_token="tok"
        )
    finally:
        tracer.remove_sink(sink)
    spans = {
        event["attrs"]["step"]: event["attrs"]["cache_key"]
        for event in sink.events()
        if event.get("kind") == "span"
        and event["name"].startswith("step:")
    }
    assert spans == chained_keys(pipeline, "src:tok")
