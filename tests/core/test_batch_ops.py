"""Batched operation implementations and the engine's verdict gating.

The ``batch=`` contract is byte-equality: for every converted stock
operation the batched body must produce ``tobytes()``-identical output
on real traffic.  The engine half: batched execution is selected only
when the analyzer approves, the choice is visible in span attributes
and counters, and vectorized results equal scalar ones.
"""

import numpy as np
import pytest

from repro.analysis.vectorize import operation_vector_report
from repro.core import ExecutionEngine, Pipeline
from repro.core.operations import (
    OPERATIONS,
    register_batch,
    register_operation,
)
from repro.core.types import ValueType
from repro.flows import assemble_connections
from repro.obs import METRICS, RingBufferSink, get_tracer
from repro.obs import metrics as metric_names

#: operations converted to batch execution in this repo
CONVERTED = [
    "DeviceLabels",
    "FirstNPackets",
    "NprintEncode",
    "ProtocolOneHot",
    "WlanFeatures",
]


@pytest.fixture
def scratch_ops():
    registered = []

    def add(name, fn, *, inputs=(ValueType.PACKETS,),
            output=ValueType.FEATURES, batch=None):
        register_operation(name, inputs, output)(fn)
        registered.append(name)
        if batch is not None:
            register_batch(name)(batch)
        return OPERATIONS[name]

    yield add
    for name in registered:
        OPERATIONS.pop(name, None)


def _with_payloads(table, payload_bytes=6):
    """A copy of ``table`` carrying deterministic synthetic payloads."""
    table = table.select(np.arange(len(table)))
    rng = np.random.default_rng(7)
    sizes = np.minimum(table.payload_len, payload_bytes).astype(np.int64)
    blob = rng.integers(0, 256, size=int(sizes.sum()), dtype=np.uint8)
    payloads, offset = [], 0
    for size in sizes:
        payloads.append(bytes(blob[offset:offset + size]))
        offset += size
    table.payloads = payloads
    return table


def _run_both(name, inputs, params):
    operation = OPERATIONS[name]
    params = operation.validate_params(params)
    scalar = operation.fn(inputs, params)
    batch = operation.batch(inputs, params)
    return scalar, batch


def _assert_byte_equal(scalar, batch):
    assert scalar.shape == batch.shape
    assert scalar.dtype == batch.dtype
    assert scalar.tobytes() == batch.tobytes()


class TestByteEquality:
    def test_protocol_one_hot(self, small_trace):
        _assert_byte_equal(*_run_both("ProtocolOneHot", [small_trace], {}))

    def test_wlan_features(self, small_trace):
        _assert_byte_equal(*_run_both("WlanFeatures", [small_trace], {}))

    def test_device_labels(self, small_trace):
        unique = np.unique(small_trace.src_ip)
        device_map = {
            str(int(ip)): i % 3 for i, ip in enumerate(unique[:16])
        }
        _assert_byte_equal(*_run_both(
            "DeviceLabels", [small_trace], {"device_map": device_map}
        ))

    def test_nprint_headers_only(self, small_trace):
        _assert_byte_equal(*_run_both(
            "NprintEncode", [small_trace],
            {"layers": ["ipv4", "tcp", "udp", "icmp"]},
        ))

    def test_nprint_with_payload(self, small_trace):
        table = _with_payloads(small_trace)
        for payload_bytes in (4, 8):
            _assert_byte_equal(*_run_both(
                "NprintEncode", [table],
                {"layers": ["ipv4", "tcp", "payload"],
                 "payload_bytes": payload_bytes},
            ))

    def test_nprint_payload_layer_without_payload_data(self, small_trace):
        # payloads=None delegates to the scalar body: trivially equal
        _assert_byte_equal(*_run_both(
            "NprintEncode", [small_trace],
            {"layers": ["ipv4", "payload"], "payload_bytes": 4},
        ))

    def test_first_n_packets(self, small_trace):
        flows = assemble_connections(small_trace)
        _assert_byte_equal(*_run_both("FirstNPackets", [flows], {}))
        _assert_byte_equal(*_run_both(
            "FirstNPackets", [flows],
            {"n": 5, "include_iat": False},
        ))

    def test_every_converted_op_is_analyzer_approved(self):
        for name in CONVERTED:
            report = operation_vector_report(OPERATIONS[name])
            assert report.batchable, (name, report.refusal)


class TestRegisterBatch:
    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            register_batch("NoSuchOperation")(lambda i, p: None)

    def test_duplicate_batch_rejected(self):
        with pytest.raises(ValueError):
            register_batch("ProtocolOneHot")(lambda i, p: None)


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


TEMPLATE = [
    {"func": "ProtocolOneHot", "input": None, "output": "X"},
    {"func": "WlanFeatures", "input": None, "output": "W"},
    {"func": "Labels", "input": None, "output": "y"},
]


def _engine(**kwargs):
    return ExecutionEngine(
        use_cache=False, track_memory=False, **kwargs,
    )


class TestEngineGating:
    def test_vectorized_matches_scalar(self, small_trace):
        pipeline = Pipeline.from_template(TEMPLATE)
        outputs = ["X", "W", "y"]
        scalar = _engine(vectorize=False).run(
            pipeline, small_trace, outputs=outputs
        )
        batched = _engine(vectorize=True).run(
            pipeline, small_trace, outputs=outputs
        )
        for name in outputs:
            assert scalar[name].tobytes() == batched[name].tobytes()

    def test_approved_steps_carry_vectorized_attr(self, small_trace):
        events = _capture(
            lambda: _engine().run(
                Pipeline.from_template(TEMPLATE), small_trace,
                outputs=["X", "W", "y"],
            )
        )
        for name in ("ProtocolOneHot", "WlanFeatures"):
            (span,) = _step_spans(events, name)
            assert span["attrs"]["vectorized"] is True
        # Labels declares no batch=: neither attribute appears
        (labels,) = _step_spans(events, "Labels")
        assert "vectorized" not in labels["attrs"]
        assert "vector_refused" not in labels["attrs"]

    def test_vectorize_off_disables_the_batch_path(self, small_trace):
        events = _capture(
            lambda: _engine(vectorize=False).run(
                Pipeline.from_template(TEMPLATE), small_trace,
                outputs=["X", "W", "y"],
            )
        )
        for span in _step_spans(events):
            assert "vectorized" not in span["attrs"]

    def test_verdict_refusal_is_visible(self, scratch_ops, small_trace):
        def scalar(inputs, params):
            order = np.argsort(inputs[0].ts)
            return inputs[0].length[order].astype(
                np.float64
            ).reshape(-1, 1)

        scratch_ops("RefusedFixture", scalar, batch=scalar)
        template = [
            {"func": "RefusedFixture", "input": None, "output": "X"},
        ]
        events = _capture(
            lambda: _engine().run(
                Pipeline.from_template(template), small_trace,
                outputs=["X"],
            )
        )
        (span,) = _step_spans(events, "RefusedFixture")
        assert span["attrs"]["vector_refused"].startswith("verdict:")
        assert "vectorized" not in span["attrs"]

    def test_runtime_object_dtype_refusal(self, scratch_ops, small_trace):
        def produce_object(inputs, params):
            out = np.empty((len(inputs[0]), 1), dtype=object)
            out[:] = 1.0
            return out

        def identity(inputs, params):
            return inputs[0]

        scratch_ops("ObjectSourceFixture", produce_object)
        scratch_ops(
            "IdentityFixture", identity,
            inputs=(ValueType.FEATURES,), batch=identity,
        )
        template = [
            {"func": "ObjectSourceFixture", "input": None, "output": "o"},
            {"func": "IdentityFixture", "input": ["o"], "output": "X"},
        ]
        events = _capture(
            lambda: _engine().run(
                Pipeline.from_template(template), small_trace,
                outputs=["X"],
            )
        )
        (span,) = _step_spans(events, "IdentityFixture")
        assert span["attrs"]["vector_refused"] == "object-dtype-input"

    def test_counters_increment(self, scratch_ops, small_trace):
        def scalar(inputs, params):
            order = np.argsort(inputs[0].ts)
            return inputs[0].length[order].astype(
                np.float64
            ).reshape(-1, 1)

        scratch_ops("CountedRefusalFixture", scalar, batch=scalar)
        template = TEMPLATE + [
            {"func": "CountedRefusalFixture", "input": None,
             "output": "R"},
        ]
        vectorized = METRICS.counter(metric_names.VECTORIZED_STEPS)
        refused = METRICS.counter(metric_names.VECTOR_REFUSALS)
        before = (vectorized.value, refused.value)
        _engine().run(
            Pipeline.from_template(template), small_trace,
            outputs=["X", "W", "y", "R"],
        )
        assert vectorized.value == before[0] + 2
        assert refused.value == before[1] + 1
