"""Differential test of the engine's two drivers.

``run`` and ``run_stream`` execute steps through one step core, so
over the same time-ordered trace they must produce byte-equal outputs
for every stock template -- at any chunk size for the templates the
streaming analyzer admits.
Stream steps must also leave the shared result cache untouched: a
chunk's value is not the trace's value.
"""

import numpy as np
import pytest

from repro.algorithms import algorithm_ids, build_algorithm
from repro.core import ExecutionEngine, Pipeline
from repro.serve.daemon import DEFAULT_TEMPLATE

OUTPUTS = ["X", "y"]
CHUNK_SECONDS = [0.5, 7.3, 1e6]


def assert_byte_equal(mine: dict, reference: dict, context: str) -> None:
    assert set(mine) == set(reference), context
    for name, value in reference.items():
        ours, theirs = np.asarray(mine[name]), np.asarray(value)
        assert ours.dtype == theirs.dtype, f"{context}:{name} dtype"
        assert ours.shape == theirs.shape, f"{context}:{name} shape"
        assert ours.tobytes() == theirs.tobytes(), f"{context}:{name}"


@pytest.fixture(scope="module")
def ordered(small_trace):
    return small_trace.sort_by_time()


def engine() -> ExecutionEngine:
    return ExecutionEngine(use_cache=False, track_memory=False)


#: every stock template: the catalog's feature templates and the one
#: ``repro serve`` scores with by default
STOCK = {
    **{
        algorithm_id: list(build_algorithm(algorithm_id).feature_template)
        for algorithm_id in algorithm_ids()
    },
    "serve-default": [dict(step) for step in DEFAULT_TEMPLATE],
}
#: the stock templates the streaming analyzer admits (the catalog's
#: start with a batch-only Downsample or a flow Groupby)
STREAMABLE = {"serve-default"}


@pytest.mark.parametrize("label", sorted(STOCK))
def test_drivers_agree(ordered, label):
    template = STOCK[label]
    pipeline = Pipeline.from_template(template)
    reference = engine().run(pipeline, ordered, outputs=OUTPUTS)

    refused = engine().open_stream(pipeline, outputs=OUTPUTS).refusals
    assert bool(refused) == (label not in STREAMABLE), refused
    if refused:
        return  # run_stream refuses it visibly before the first chunk
    for chunk_seconds in CHUNK_SECONDS:
        streamed = engine().run_stream(
            pipeline, ordered, chunk_seconds=chunk_seconds, outputs=OUTPUTS
        )
        assert_byte_equal(
            streamed, reference, f"{label} stream@{chunk_seconds}"
        )


def test_run_stream_leaves_the_shared_cache_alone(ordered, monkeypatch):
    cache = ExecutionEngine.shared_cache
    calls = []
    for method in ("get", "put"):
        original = getattr(cache, method)

        def recorder(*args, _method=method, _original=original, **kwargs):
            calls.append(_method)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cache, method, recorder)
    size = len(cache)
    ExecutionEngine(use_cache=True, track_memory=False).run_stream(
        Pipeline.from_template(STOCK["serve-default"]), ordered,
        chunk_seconds=5.0, outputs=OUTPUTS,
    )
    assert len(cache) == size
    assert calls == []
