"""Engine-level enforcement of the effect analyzer's verdicts.

Regression guarantees for the safety gating: the result cache never
memoizes a stateful fixture op, seeded ops key their cache entries on
the seed param, and every refusal is counted.
"""

import numpy as np
import pytest

from repro.core import ExecutionEngine, Pipeline
from repro.core.operations import OPERATIONS, register_operation
from repro.core.pipeline import step_key
from repro.core.types import ValueType
from repro.obs import RingBufferSink, get_tracer

#: execution log for the module-level stateful fixture op -- the write
#: to this list is itself what makes the op stateful (L022)
_STATEFUL_CALLS = []


def _register(name, fn, *, output_type=ValueType.FEATURES, **kwargs):
    register_operation(name, (ValueType.PACKETS,), output_type, **kwargs)(fn)
    return name


@pytest.fixture(autouse=True)
def fresh_cache():
    ExecutionEngine.shared_cache.clear()
    yield
    ExecutionEngine.shared_cache.clear()


@pytest.fixture
def scratch_ops():
    """Register fixture ops for one test; always unregister after."""
    registered = []

    def add(name, fn, **kwargs):
        registered.append(_register(name, fn, **kwargs))
        return name

    yield add
    for name in registered:
        OPERATIONS.pop(name, None)


def _stateful_op(inputs, params):
    _STATEFUL_CALLS.append(len(inputs[0]))
    return np.zeros((len(inputs[0]), 1))


def _pure_op(inputs, params):
    return np.ones((len(inputs[0]), 1))


def _capture(fn):
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        fn()
    finally:
        tracer.remove_sink(sink)
    return sink.events()


def _step_spans(events, operation=None):
    spans = [
        e for e in events
        if e["kind"] == "span" and e["name"].startswith("step:")
    ]
    if operation is not None:
        spans = [e for e in spans if e["attrs"]["operation"] == operation]
    return spans


class TestCacheRefusal:
    def test_stateful_op_is_never_memoized(self, scratch_ops, small_trace):
        scratch_ops("StatefulFixture", _stateful_op)
        scratch_ops("PureFixture", _pure_op)
        template = [
            {"func": "StatefulFixture", "input": None, "output": "bad"},
            {"func": "PureFixture", "input": None, "output": "good"},
        ]
        pipeline = Pipeline.from_template(template)
        engine = ExecutionEngine(track_memory=False)
        _STATEFUL_CALLS.clear()

        engine.run(pipeline, small_trace, outputs=["bad", "good"],
                   source_token="tok")
        engine.run(pipeline, small_trace, outputs=["bad", "good"],
                   source_token="tok")

        # the stateful op executed both runs; the pure one was served
        # from the shared cache the second time
        assert len(_STATEFUL_CALLS) == 2
        cached = {
            (p.operation, p.cached) for p in engine.last_report.profiles
        }
        assert ("PureFixture", True) in cached
        assert ("StatefulFixture", False) in cached

    def test_refusal_is_visible_in_spans(self, scratch_ops, small_trace):
        scratch_ops("StatefulFixture", _stateful_op)
        template = [
            {"func": "StatefulFixture", "input": None, "output": "bad"},
        ]
        pipeline = Pipeline.from_template(template)
        events = _capture(
            lambda: ExecutionEngine(track_memory=False).run(
                pipeline, small_trace, source_token="tok"
            )
        )
        (span,) = _step_spans(events, "StatefulFixture")
        assert span["attrs"]["purity"] == "stateful"
        assert span["attrs"]["cache_refused"] == "stateful"

    def test_pure_steps_carry_purity_attr(self, small_trace):
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"]},
        ]
        events = _capture(
            lambda: ExecutionEngine(track_memory=False).run(
                Pipeline.from_template(template), small_trace,
                source_token="tok",
            )
        )
        (span,) = _step_spans(events, "Groupby")
        assert span["attrs"]["purity"] == "pure"
        assert "cache_refused" not in span["attrs"]


class TestSeededCacheKeys:
    def test_step_key_names_the_seed(self):
        def key(seed):
            return step_key(
                "Downsample", {"max_packets": 10, "seed": seed},
                ["src:tok"], ("seed",),
            )

        assert key(7) == key(7)
        assert key(7) != key(8)

    def test_same_seed_hits_different_seed_misses(self, small_trace):
        def run(seed):
            template = [
                {"func": "Downsample", "input": None, "output": "pkts",
                 "max_packets": 10, "seed": seed},
            ]
            engine = ExecutionEngine(track_memory=False)
            engine.run(Pipeline.from_template(template), small_trace,
                       outputs=["pkts"], source_token="tok")
            return engine.last_report.profiles[0].cached

        assert run(1) is False
        assert run(1) is True  # same seed: memoized
        assert run(2) is False  # different seed: distinct cache entry


class TestSafetyMetrics:
    def test_counters_increment(self, scratch_ops, small_trace):
        from repro.obs import METRICS
        from repro.obs import metrics as metric_names

        scratch_ops("StatefulFixture", _stateful_op)
        template = [
            {"func": "StatefulFixture", "input": None, "output": "bad"},
        ]
        refusals = METRICS.counter(
            metric_names.CACHE_REFUSALS, labelnames=("reason",)
        ).labels(reason="stateful")
        before = refusals.value
        ExecutionEngine(track_memory=False).run(
            Pipeline.from_template(template), small_trace,
            source_token="tok",
        )
        assert refusals.value == before + 1
