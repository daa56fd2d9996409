"""Tests for the streaming-safety analyzer and the chunked engine mode.

Covers the incrementality classifier and state-bound inference, the
carried-state growth/eviction audit shared with astlint AL010, the
registry-facing reports with the L041-L048 diagnostics (positive and
negative cases via fixture operations), the full-registry audit
regression, the template-level pass (L046), and ``Engine.run_stream``:
byte-equality with batch execution across chunk sizes and the visible
refusal of anything unproven.
"""

import ast
import json
import textwrap

import numpy as np
import pytest

from repro.analysis import analyze_template, audit_payload
from repro.analysis.streamable import (
    BATCH_ONLY,
    BOUND_ORDER,
    PREFIX_MERGEABLE,
    STATELESS,
    STREAMABLE_VERDICTS,
    WINDOW_BOUNDED,
    classify_stream,
    infer_state_bound,
    operation_stream_report,
)
from repro.analysis.facts import analyze_rows, stream_state_audit
from repro.core import ExecutionEngine, Pipeline
from repro.core.engine import _carried_state_bytes
from repro.core.errors import TemplateError
from repro.core.operations import (
    OPERATIONS,
    register_operation,
    register_stream,
)
from repro.core.types import ValueType
from repro.obs import METRICS, RingBufferSink, get_tracer
from repro.obs import metrics as metric_names


def findings_of(source, name="op"):
    tree = ast.parse(textwrap.dedent(source))
    node = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return analyze_rows(node)


def body_of(source, name="op"):
    tree = ast.parse(textwrap.dedent(source))
    return next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )


@pytest.fixture
def scratch_ops():
    """Register fixture operations for one test; unregister after."""
    registered = []

    def add(name, fn, *, inputs=(ValueType.PACKETS,),
            output=ValueType.FEATURES, stream_fn=None, **kwargs):
        register_operation(name, inputs, output, **kwargs)(fn)
        registered.append(name)
        if stream_fn is not None:
            register_stream(name)(stream_fn)
        return OPERATIONS[name]

    yield add
    for name in registered:
        OPERATIONS.pop(name, None)


class TestClassifier:
    def test_scalar_domain_is_stateless(self):
        assert classify_stream([], ("any",), "model") == STATELESS

    def test_clean_featurizer_is_stateless(self):
        assert classify_stream([], ("packets",), "features") == STATELESS

    def test_whole_input_reduction_is_batch_only(self):
        verdict = classify_stream([], ("features", "labels"), "model")
        assert verdict == BATCH_ONLY

    def test_global_sort_is_batch_only(self):
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                order = np.argsort(inputs[0].ts)
                return inputs[0].length[order]
            """
        )
        assert classify_stream(findings, ("packets",), "packets") == BATCH_ONLY

    def test_flow_consumer_is_window_bounded(self):
        assert (
            classify_stream([], ("flows",), "features") == WINDOW_BOUNDED
        )

    def test_window_bounded_wins_over_prefix_markers(self):
        # TimeSlice-like: loop-carried state over an already
        # window-bounded flow table stays window-bounded
        findings = findings_of(
            """
            def op(inputs, params):
                total = 0.0
                for count in inputs[0].counts:
                    total += count
                return inputs[0]
            """
        )
        verdict = classify_stream(findings, ("flows",), "flows")
        assert verdict == WINDOW_BOUNDED

    def test_prefix_scan_is_prefix_mergeable(self):
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.cumsum(inputs[0].length).reshape(-1, 1)
            """
        )
        verdict = classify_stream(findings, ("packets",), "features")
        assert verdict == PREFIX_MERGEABLE

    def test_streamable_verdicts_exclude_batch_only(self):
        assert BATCH_ONLY not in STREAMABLE_VERDICTS
        assert STREAMABLE_VERDICTS == {
            STATELESS, PREFIX_MERGEABLE, WINDOW_BOUNDED
        }


class TestStateBounds:
    def test_stateless_is_constant(self):
        assert infer_state_bound(STATELESS, []) == "O(1)"

    def test_window_bounded_is_window(self):
        assert infer_state_bound(WINDOW_BOUNDED, []) == "O(window)"

    def test_batch_only_is_whole_trace(self):
        assert infer_state_bound(BATCH_ONLY, []) == "O(n)"

    def test_grouped_prefix_state_is_per_flow(self):
        findings = findings_of(
            """
            def op(inputs, params):
                return kitsune_packet_features(inputs[0], params["lambdas"])
            """
        )
        assert infer_state_bound(PREFIX_MERGEABLE, findings) == "O(flows)"

    def test_row_accumulator_never_folds(self):
        findings = findings_of(
            """
            def op(inputs, params):
                seen = []
                for row in inputs[0]:
                    seen.append(row)
                return seen
            """
        )
        assert infer_state_bound(PREFIX_MERGEABLE, findings) == "O(n)"

    def test_bound_order_is_total(self):
        assert (
            BOUND_ORDER["O(1)"] < BOUND_ORDER["O(window)"]
            < BOUND_ORDER["O(flows)"] < BOUND_ORDER["O(n)"]
        )


class TestStateAudit:
    def test_growth_without_eviction(self):
        audit = stream_state_audit(
            body_of(
                """
                def op(inputs, params, state):
                    rows = state.setdefault("rows", [])
                    rows.append(inputs[0])
                    return inputs[0]
                """
            ),
            {"state"},
        )
        assert audit["growth"]
        assert audit["eviction"] == []

    def test_fixed_key_slot_is_not_growth(self):
        audit = stream_state_audit(
            body_of(
                """
                def op(inputs, params, state):
                    ks = state.get("kitsune")
                    if ks is None:
                        ks = object()
                        state["kitsune"] = ks
                    return ks
                """
            ),
            {"state"},
        )
        assert audit["growth"] == []

    def test_per_key_subscript_is_growth(self):
        audit = stream_state_audit(
            body_of(
                """
                def op(inputs, params, state):
                    for key in inputs[0]:
                        state[key] = 1
                """
            ),
            {"state"},
        )
        assert audit["growth"]

    def test_del_and_shrink_count_as_eviction(self):
        audit = stream_state_audit(
            body_of(
                """
                def op(inputs, params, state):
                    state[inputs[0]] = 1
                    del state[inputs[0]]
                    state.pop("x", None)
                """
            ),
            {"state"},
        )
        assert len(audit["eviction"]) == 2

    def test_eviction_name_hint_counts(self):
        audit = stream_state_audit(
            body_of(
                """
                def process_chunk(self, chunk):
                    self._seen[chunk.key] = chunk
                    self._evict_expired(chunk.ts)
                """,
                name="process_chunk",
            ),
            {"self"},
        )
        assert audit["growth"]
        assert audit["eviction"]

    def test_carrier_aliases_are_followed(self):
        audit = stream_state_audit(
            body_of(
                """
                def op(inputs, params, state):
                    buffers = state.setdefault("buffers", {})
                    queue = buffers.setdefault("q", [])
                    queue.append(inputs[0])
                """
            ),
            {"state"},
        )
        # state -> buffers -> queue all count as carriers
        details = [detail for _, detail in audit["growth"]]
        assert any("queue.append" in detail for detail in details)


def _clean_stream(inputs, params, state):
    return inputs[0]


def _leaky_stream(inputs, params, state):
    rows = state.setdefault("rows", [])
    rows.append(inputs[0])
    return inputs[0]


class TestOperationReports:
    def test_l042_whole_trace_reduction_under_stream_declaration(
        self, scratch_ops
    ):
        def scalar(inputs, params):
            mu = inputs[0].length.mean()
            return (inputs[0].length - mu).reshape(-1, 1)

        operation = scratch_ops(
            "StreamMeanFixture", scalar, stream_fn=_clean_stream
        )
        report = operation_stream_report(operation)
        assert "L042" in report.codes()
        assert not report.streamable

    def test_l045_declaration_drift(self, scratch_ops):
        def scalar(inputs, params):
            order = np.argsort(inputs[0].ts)
            return inputs[0].length[order].astype(
                np.float64
            ).reshape(-1, 1)

        operation = scratch_ops(
            "StreamDriftFixture", scalar, stream_fn=_clean_stream
        )
        report = operation_stream_report(operation)
        assert report.verdict == BATCH_ONLY
        assert "L045" in report.codes()
        assert report.refusal == f"verdict:{BATCH_ONLY}"

    def test_l041_unbounded_state_under_tight_budget(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0].length.astype(np.float64).reshape(-1, 1)

        operation = scratch_ops(
            "StreamLeakFixture", scalar,
            state_bound="O(1)", stream_fn=_leaky_stream,
        )
        report = operation_stream_report(operation)
        assert "L041" in report.codes()
        assert report.refusal == "diagnostics:L041"

    def test_l041_absent_for_clean_stream_body(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0].length.astype(np.float64).reshape(-1, 1)

        operation = scratch_ops(
            "StreamCleanFixture", scalar,
            state_bound="O(1)", stream_fn=_clean_stream,
        )
        report = operation_stream_report(operation)
        assert report.codes() == set()
        assert report.streamable

    def test_l047_eviction_free_flow_buffer(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0]

        operation = scratch_ops(
            "StreamBufferFixture", scalar,
            inputs=(ValueType.FLOWS,), output=ValueType.FLOWS,
            optional_params={"timeout": 60.0},
            state_bound="O(window)", stream_fn=_leaky_stream,
        )
        report = operation_stream_report(operation)
        assert "L047" in report.codes()
        assert report.refusal == "diagnostics:L047"

    def test_l048_state_budget_exceeded(self, scratch_ops):
        def scalar(inputs, params):
            return kitsune_packet_features(  # noqa: F821 -- marker only
                inputs[0], params
            )

        operation = scratch_ops(
            "StreamBudgetFixture", scalar, state_bound="O(1)",
        )
        report = operation_stream_report(operation)
        assert report.verdict == PREFIX_MERGEABLE
        assert report.state_bound == "O(flows)"
        assert "L048" in report.codes()
        assert report.refusal == "diagnostics:L048"

    def test_l043_window_not_derivable(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0]

        operation = scratch_ops(
            "StreamNoWindowFixture", scalar,
            inputs=(ValueType.FLOWS,), output=ValueType.FLOWS,
            state_bound="O(window)", stream_fn=_clean_stream,
        )
        report = operation_stream_report(operation)
        assert "L043" in report.codes()
        assert report.window_derivable is False
        # a warning, not an error: nothing refuses the body
        assert report.refusal is None

    def test_l043_silenced_by_timeout_param(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0]

        operation = scratch_ops(
            "StreamWindowedFixture", scalar,
            inputs=(ValueType.FLOWS,), output=ValueType.FLOWS,
            optional_params={"timeout": 60.0},
            state_bound="O(window)", stream_fn=_clean_stream,
        )
        report = operation_stream_report(operation)
        assert "L043" not in report.codes()
        assert report.window_derivable is True

    def test_l044_order_sensitivity_without_sort_key(self, scratch_ops):
        def scalar(inputs, params):
            return np.cumsum(
                inputs[0].length.astype(np.float64)
            ).reshape(-1, 1)

        operation = scratch_ops("StreamUnsortedFixture", scalar)
        report = operation_stream_report(operation)
        assert report.verdict == PREFIX_MERGEABLE
        assert "L044" in report.codes()

    def test_l044_silenced_by_sort_key(self, scratch_ops):
        def scalar(inputs, params):
            return np.cumsum(
                inputs[0].length.astype(np.float64)
            ).reshape(-1, 1)

        operation = scratch_ops(
            "StreamSortedFixture", scalar, sort_key="ts"
        )
        report = operation_stream_report(operation)
        assert "L044" not in report.codes()

    def test_stateless_streams_without_a_body(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0].length.astype(np.float64).reshape(-1, 1)

        operation = scratch_ops("StreamPlainFixture", scalar)
        report = operation_stream_report(operation)
        assert report.verdict == STATELESS
        assert report.streamable
        assert report.has_stream_fn is False

    def test_stateful_verdict_needs_a_body(self, scratch_ops):
        def scalar(inputs, params):
            return np.cumsum(
                inputs[0].length.astype(np.float64)
            ).reshape(-1, 1)

        operation = scratch_ops(
            "StreamBodylessFixture", scalar, sort_key="ts"
        )
        report = operation_stream_report(operation)
        assert report.refusal == "no-stream-implementation"

    def test_report_serializes(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0].length.astype(np.float64).reshape(-1, 1)

        operation = scratch_ops("StreamSerializeFixture", scalar)
        payload = operation_stream_report(operation).to_dict()
        assert payload["operation"] == "StreamSerializeFixture"
        assert payload["verdict"] == STATELESS
        assert payload["state_bound"] == "O(1)"
        assert payload["streamable"] is True
        assert payload["refusal"] is None


class TestRegistryAudit:
    @pytest.fixture(scope="class")
    def audit(self):
        return audit_payload()["streamable"]

    def test_audit_covers_every_operation(self, audit):
        names = [entry["operation"] for entry in audit["operations"]]
        assert names == sorted(OPERATIONS)
        assert audit["summary"]["total"] == len(OPERATIONS)

    def test_no_stock_operation_errors_or_is_opaque(self, audit):
        assert audit["summary"]["errors"] == 0
        assert audit["summary"]["opaque"] == 0

    def test_summary_counts_are_consistent(self, audit):
        summary = audit["summary"]
        assert (
            summary["stateless"] + summary["prefix_mergeable"]
            + summary["window_bounded"] + summary["batch_only"]
            + summary["opaque"]
        ) == summary["total"]

    def test_known_verdicts(self, audit):
        by_name = {
            entry["operation"]: entry for entry in audit["operations"]
        }
        assert by_name["KitsuneFeatures"]["verdict"] == PREFIX_MERGEABLE
        assert by_name["KitsuneFeatures"]["state_bound"] == "O(flows)"
        assert by_name["Labels"]["verdict"] == STATELESS
        assert by_name["Groupby"]["verdict"] == WINDOW_BOUNDED
        assert by_name["Groupby"]["window_derivable"] is True
        for name in ("Downsample", "SortByTime", "Normalize", "train"):
            assert by_name[name]["verdict"] == BATCH_ONLY, name
            assert by_name[name]["refusal"] == f"verdict:{BATCH_ONLY}"

    def test_stream_body_exactly_on_stateful_ops(self, audit):
        # a stream body is the streaming declaration: it exists exactly
        # where an op carries state across chunks
        entries = audit["operations"]
        assert {e["operation"] for e in entries if e["stream_fn"]} >= {
            "KitsuneFeatures"
        }
        for entry in entries:
            if entry["stream_fn"]:
                assert entry["streamable"], entry["operation"]
                assert entry["verdict"] != STATELESS, entry["operation"]
            if entry["verdict"] == STATELESS:
                assert entry["streamable"], entry["operation"]
                assert not entry["stream_fn"], entry["operation"]

    def test_audit_is_byte_deterministic(self):
        first = json.dumps(audit_payload()["streamable"], sort_keys=True)
        second = json.dumps(audit_payload()["streamable"], sort_keys=True)
        assert first == second


class TestTemplatePass:
    def test_l046_batch_only_step_pins_streamable_template(self):
        template = [
            {"func": "Downsample", "input": None, "output": "sampled",
             "max_packets": 100, "seed": 1},
            {"func": "ProtocolOneHot", "input": ["sampled"],
             "output": "X"},
        ]
        result = analyze_template(template, outputs=["X"])
        assert "L046" in result.codes()
        assert result.ok  # warning only: batch execution stays valid

    def test_no_l046_without_a_streamable_stage(self):
        template = [
            {"func": "Downsample", "input": None, "output": "sampled",
             "max_packets": 100, "seed": 1},
        ]
        result = analyze_template(template, outputs=["sampled"])
        assert "L046" not in result.codes()

    def test_no_l046_for_learning_tail_steps(self):
        # train/evaluate are batch-only by construction; they must not
        # pin the feature pipeline (streaming scores a fitted model)
        template = [
            {"func": "ProtocolOneHot", "input": None, "output": "X"},
            {"func": "Labels", "input": None, "output": "y"},
            {"func": "model", "input": [], "output": "m",
             "model_type": "if"},
            {"func": "train", "input": ["m", "X", "y"], "output": "fit"},
        ]
        result = analyze_template(template, outputs=["fit"])
        assert "L046" not in result.codes()

    def test_stock_catalog_has_no_streaming_errors(self):
        from repro.algorithms import ALGORITHMS

        for algorithm_id in sorted(ALGORITHMS):
            spec = ALGORITHMS[algorithm_id]
            result = analyze_template(
                spec.full_template(), outputs=["metrics"]
            )
            error_codes = result.codes() & {
                "L041", "L042", "L045", "L047", "L048"
            }
            assert error_codes == set(), (algorithm_id, error_codes)


STREAM_TEMPLATE = [
    {"func": "KitsuneFeatures", "input": None, "output": "X",
     "lambdas": [1.0, 0.1]},
    {"func": "Labels", "input": None, "output": "y"},
]


def capture(fn):
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        fn()
    finally:
        tracer.remove_sink(sink)
    return [e for e in sink.events() if e.get("kind") == "span"]


class TestRunStream:
    @pytest.mark.parametrize("chunk_seconds", [0.5, 5.0, 1e6])
    def test_stream_equals_batch(self, small_trace, chunk_seconds):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(STREAM_TEMPLATE)
        batch = engine.run(
            pipeline, small_trace.sort_by_time(), outputs=["X", "y"]
        )
        streamed = engine.run_stream(
            pipeline, small_trace,
            chunk_seconds=chunk_seconds, outputs=["X", "y"],
        )
        assert np.array_equal(batch["X"], streamed["X"])
        assert np.array_equal(batch["y"], streamed["y"])

    def test_refuses_batch_only_step(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(
            [
                {"func": "Downsample", "input": None, "output": "s",
                 "max_packets": 100, "seed": 1},
                {"func": "ProtocolOneHot", "input": ["s"], "output": "X"},
            ]
        )
        refused = METRICS.counter(
            metric_names.STREAM_REFUSALS, "", labelnames=("reason",)
        ).labels(reason="verdict:batch-only")
        before = refused.value
        spans = []

        def attempt():
            with pytest.raises(TemplateError, match="not proven"):
                engine.run_stream(
                    pipeline, small_trace,
                    chunk_seconds=10.0, outputs=["X"],
                )

        spans = capture(attempt)
        run = next(s for s in spans if s["name"] == "run_stream")
        assert "Downsample:verdict:batch-only" in (
            run["attrs"]["stream_refused"]
        )
        assert refused.value == before + 1

    def test_refuses_stateful_step_without_body(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(
            [
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "PropagateLabels", "input": ["flows"],
                 "output": "y"},
            ]
        )
        with pytest.raises(TemplateError, match="no-stream-implementation"):
            engine.run_stream(
                pipeline, small_trace, chunk_seconds=10.0, outputs=["y"]
            )

    def test_spans_carry_chunk_and_state_attrs(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(STREAM_TEMPLATE)
        spans = capture(
            lambda: engine.run_stream(
                pipeline, small_trace,
                chunk_seconds=10.0, outputs=["X", "y"],
            )
        )
        run = next(s for s in spans if s["name"] == "run_stream")
        chunks = [s for s in spans if s["name"] == "stream_chunk"]
        assert run["attrs"]["chunks"] == len(chunks) > 1
        assert "stream_refused" not in run["attrs"]
        for index, span in enumerate(chunks):
            assert span["attrs"]["chunk"] == index
            # KitsuneFeatures carries per-flow IncStats across chunks
            assert span["attrs"]["state_bytes"] > 0

    def test_steps_counter_increments(self, small_trace):
        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(STREAM_TEMPLATE)
        before = METRICS.counter(metric_names.STREAM_STEPS, "").value
        engine.run_stream(
            pipeline, small_trace, chunk_seconds=10.0, outputs=["y"]
        )
        after = METRICS.counter(metric_names.STREAM_STEPS, "").value
        assert after > before

    def test_empty_source_raises(self):
        from repro.net.table import PacketTable

        engine = ExecutionEngine(use_cache=False, track_memory=False)
        pipeline = Pipeline.from_template(STREAM_TEMPLATE)
        with pytest.raises(TemplateError, match="non-empty"):
            engine.run_stream(
                pipeline, PacketTable.empty(),
                chunk_seconds=10.0, outputs=["y"],
            )

    def test_carried_state_bytes_handles_cycles(self):
        state = {"x": np.zeros(16)}
        state["self"] = state  # cycle must not recurse forever
        measured = _carried_state_bytes({0: state})
        assert measured >= state["x"].nbytes
