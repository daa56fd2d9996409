"""Tests for the vectorization-safety analyzer.

Covers the AST layer (row-loop/taint detection, loop-carried state,
callee markers), the verdict classifier, the registry-facing reports
with the L036-L038 diagnostics (positive and negative cases via fixture
operations), the full-registry audit regression, fingerprint-attached
verdicts, and the template-level shape pass (L035).
"""

import ast
import json
import textwrap

import numpy as np
import pytest

from repro.analysis import analyze_template, audit_payload
from repro.analysis.vectorize import (
    BATCHABLE_VERDICTS,
    ELEMENTWISE,
    OPAQUE,
    ROW_PARALLEL,
    SEQUENTIAL,
    RowKind,
    classify,
    operation_vector_report,
    verdict_fingerprints,
)
from repro.analysis.diagnostics import Severity
from repro.analysis.facts import RowFinding, analyze_rows
from repro.core.operations import OPERATIONS, register_operation
from repro.core.types import ValueType


def findings_of(source, name="op"):
    """Row findings for function ``name`` inside a module source."""
    tree = ast.parse(textwrap.dedent(source))
    node = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return analyze_rows(node)


def kinds_of(source, name="op"):
    return {finding.kind for finding in findings_of(source, name)}


@pytest.fixture
def scratch_ops():
    """Register fixture operations for one test; unregister after."""
    registered = []

    def add(name, fn, *, inputs=(ValueType.PACKETS,),
            output=ValueType.FEATURES, **kwargs):
        register_operation(name, inputs, output, **kwargs)(fn)
        registered.append(name)
        return OPERATIONS[name]

    yield add
    for name in registered:
        OPERATIONS.pop(name, None)


class TestRowLoops:
    def test_loop_over_input_rows(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                out = 0
                for packet in inputs[0]:
                    out = max(out, packet)
                return out
            """
        )
        assert RowKind.ROW_LOOP in kinds

    def test_loop_over_input_column_alias(self):
        findings = findings_of(
            """
            def op(inputs, params):
                table = inputs[0]
                sizes = table.length
                for size in sizes:
                    print(size)
            """
        )
        assert any(f.kind is RowKind.ROW_LOOP for f in findings)

    def test_loop_over_params_is_not_a_row_loop(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                for field in params["fields"]:
                    print(field)
            """
        )
        assert RowKind.ROW_LOOP not in kinds

    def test_loop_over_literal_is_not_a_row_loop(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                for layer in ("ipv4", "tcp"):
                    print(layer)
            """
        )
        assert RowKind.ROW_LOOP not in kinds

    def test_enumerate_over_input_is_a_row_loop(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                for i, row in enumerate(inputs[0]):
                    print(i, row)
            """
        )
        assert RowKind.ROW_LOOP in kinds


class TestLoopCarried:
    def test_augmented_accumulator(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                total = 0.0
                for size in inputs[0].length:
                    total += size
                return total
            """
        )
        assert RowKind.LOOP_CARRIED in kinds

    def test_append_to_outer_list(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                seen = []
                for row in inputs[0]:
                    seen.append(row)
                return seen
            """
        )
        assert RowKind.LOOP_CARRIED in kinds

    def test_self_referential_rebinding(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                state = 0.0
                for row in inputs[0]:
                    state = state * 0.5 + row
                return state
            """
        )
        assert RowKind.LOOP_CARRIED in kinds

    def test_indexed_store_is_independent(self):
        # out[i] = f(row): each output row written once -- elementwise
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                out = np.zeros(len(inputs[0]))
                for i, size in enumerate(inputs[0].length):
                    out[i] = float(size)
                return out
            """
        )
        kinds = {f.kind for f in findings}
        assert RowKind.ROW_LOOP in kinds
        assert RowKind.LOOP_CARRIED not in kinds

    def test_name_bound_inside_loop_is_fresh(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                for row in inputs[0]:
                    parts = []
                    parts.append(row)
            """
        )
        assert RowKind.LOOP_CARRIED not in kinds


class TestCalleeMarkers:
    def test_cumsum_on_inputs_is_sequential(self):
        kinds = kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.cumsum(inputs[0].length)
            """
        )
        assert RowKind.SEQUENTIAL_CALL in kinds

    def test_cumsum_on_params_is_not(self):
        kinds = kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.cumsum(params["weights"])
            """
        )
        assert RowKind.SEQUENTIAL_CALL not in kinds

    def test_diff_is_order_sensitive(self):
        kinds = kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.diff(inputs[0].ts)
            """
        )
        assert RowKind.ORDER_SENSITIVE in kinds

    def test_segmented_reduction_is_grouped(self):
        kinds = kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                flows = inputs[0]
                return np.add.reduceat(flows.lengths, flows.starts)
            """
        )
        assert RowKind.GROUPED_REDUCTION in kinds

    def test_select_is_row_subset(self):
        kinds = kinds_of(
            """
            def op(inputs, params):
                return inputs[0].select(params["mask"])
            """
        )
        assert RowKind.ROW_SELECTION in kinds

    def test_object_dtype_markers(self):
        assert RowKind.OBJECT_DTYPE in kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.array(list(inputs[0]), dtype=object)
            """
        )
        assert RowKind.OBJECT_DTYPE in kinds_of(
            """
            def op(inputs, params):
                return inputs[0].astype(object)
            """
        )
        assert RowKind.OBJECT_DTYPE in kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                shim = np.vectorize(params["fn"])
                return shim(inputs[0])
            """
        )
        assert RowKind.OBJECT_DTYPE in kinds_of(
            """
            import numpy as np

            def op(inputs, params):
                shim = np.frompyfunc(float, 1, 1)
                return shim(inputs[0].length).reshape(-1, 1)
            """
        )

    def test_findings_are_deterministically_ordered(self):
        source = """
            import numpy as np

            def op(inputs, params):
                a = np.cumsum(inputs[0].length)
                b = np.diff(inputs[0].ts)
                return a, b
            """
        first = [f.to_dict() for f in findings_of(source)]
        second = [f.to_dict() for f in findings_of(source)]
        assert first == second
        lines = [f["line"] for f in first]
        assert lines == sorted(lines)


class TestClassifier:
    def test_scalar_domain_is_vacuously_elementwise(self):
        assert classify([], ("any",), "model") == ELEMENTWISE

    def test_clean_columnar_transform_is_elementwise(self):
        assert classify([], ("packets",), "features") == ELEMENTWISE

    def test_whole_input_reduction_is_sequential(self):
        assert classify([], ("features", "labels"), "model") == SEQUENTIAL

    def test_loop_carried_forces_sequential(self):
        findings = findings_of(
            """
            def op(inputs, params):
                total = 0.0
                for size in inputs[0].length:
                    total += size
            """
        )
        assert classify(findings, ("packets",), "features") == SEQUENTIAL

    def test_diff_over_packets_is_sequential(self):
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.diff(inputs[0].ts).reshape(-1, 1)
            """
        )
        assert classify(findings, ("packets",), "features") == SEQUENTIAL

    def test_diff_within_flows_stays_batchable(self):
        # intra-flow diff is row-local at flow granularity
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.diff(inputs[0].ts, prepend=0.0).reshape(-1, 1)
            """
        )
        verdict = classify(findings, ("flows",), "features")
        assert verdict in BATCHABLE_VERDICTS

    def test_grouped_reduction_is_row_parallel(self):
        findings = findings_of(
            """
            import numpy as np

            def op(inputs, params):
                flows = inputs[0]
                return np.add.reduceat(flows.lengths, flows.starts)
            """
        )
        assert classify(findings, ("flows",), "features") == ROW_PARALLEL

    def test_no_source_is_opaque(self):
        # opaque comes from the registry layer (no source to analyze)

        opaque = [RowFinding(RowKind.SOURCE_UNAVAILABLE, 0, "lambda")]
        assert classify(opaque, ("packets",), "features") == OPAQUE


class TestOperationReports:
    def test_l036_object_dtype_fallback(self, scratch_ops):
        def scalar(inputs, params):
            return np.array(
                [[float(x)] for x in inputs[0].length], dtype=object
            )

        operation = scratch_ops("ObjectFixture", scalar)
        report = operation_vector_report(operation)
        assert "L036" in report.codes()

    def test_l037_hidden_row_loop_in_featurizer(self, scratch_ops):
        def scalar(inputs, params):
            out = np.zeros((len(inputs[0]), 1))
            for i, size in enumerate(inputs[0].length):
                out[i, 0] = float(size)
            return out

        operation = scratch_ops("LoopyFixture", scalar)
        report = operation_vector_report(operation)
        assert report.verdict == ELEMENTWISE
        assert "L037" in report.codes()

    def test_l038_order_sensitive_without_sort_key(self, scratch_ops):
        def scalar(inputs, params):
            return np.cumsum(
                inputs[0].length.astype(np.float64)
            ).reshape(-1, 1)

        operation = scratch_ops("UnsortedFixture", scalar)
        report = operation_vector_report(operation)
        assert report.order_sensitive is True
        assert "L038" in report.codes()

    def test_l038_silenced_by_sort_key(self, scratch_ops):
        def scalar(inputs, params):
            return np.cumsum(
                inputs[0].length.astype(np.float64)
            ).reshape(-1, 1)

        operation = scratch_ops(
            "SortedFixture", scalar, sort_key="ts"
        )
        report = operation_vector_report(operation)
        assert "L038" not in report.codes()

    def test_lambda_is_opaque(self, scratch_ops):
        operation = scratch_ops(
            "LambdaFixture", eval("lambda inputs, params: None")
        )
        report = operation_vector_report(operation)
        assert report.verdict == OPAQUE

    def test_report_serializes(self, scratch_ops):
        def scalar(inputs, params):
            return inputs[0].length.astype(np.float64).reshape(-1, 1)

        operation = scratch_ops("SerializeFixture", scalar)
        payload = operation_vector_report(operation).to_dict()
        assert payload["operation"] == "SerializeFixture"
        assert payload["verdict"] == ELEMENTWISE
        assert set(payload) == {
            "operation", "verdict", "domain", "sort_key",
            "order_sensitive", "findings", "diagnostics",
        }


class TestRegistryAudit:
    @pytest.fixture(scope="class")
    def audit(self):
        return audit_payload()["vectorize"]

    def test_audit_covers_every_operation(self, audit):
        names = [entry["operation"] for entry in audit["operations"]]
        assert names == sorted(OPERATIONS)
        assert audit["summary"]["total"] == len(OPERATIONS)

    def test_no_stock_operation_is_opaque(self, audit):
        assert audit["summary"]["opaque"] == 0

    def test_no_stock_operation_errors(self, audit):
        errors = [
            (name, diagnostic)
            for name, operation in sorted(OPERATIONS.items())
            for diagnostic in operation_vector_report(operation).diagnostics
            if diagnostic.severity is Severity.ERROR
        ]
        assert errors == []

    def test_summary_counts_are_consistent(self, audit):
        summary = audit["summary"]
        assert (
            summary["elementwise"] + summary["row_parallel"]
            + summary["sequential"] + summary["opaque"]
        ) == summary["total"]

    def test_known_verdicts(self, audit):
        by_name = {
            entry["operation"]: entry for entry in audit["operations"]
        }
        assert by_name["ProtocolOneHot"]["verdict"] == ELEMENTWISE
        assert by_name["NprintEncode"]["verdict"] == ELEMENTWISE
        assert by_name["FirstNPackets"]["verdict"] == ROW_PARALLEL
        assert by_name["PropagateLabels"]["verdict"] == ROW_PARALLEL
        assert by_name["SortByTime"]["verdict"] == SEQUENTIAL
        assert by_name["train"]["verdict"] == SEQUENTIAL
        assert by_name["Normalize"]["verdict"] == SEQUENTIAL

    def test_converted_ops_are_batchable(self, audit):
        by_name = {
            entry["operation"]: entry for entry in audit["operations"]
        }
        for name in ("DeviceLabels", "FirstNPackets", "ProtocolOneHot",
                     "WlanFeatures"):
            assert by_name[name]["verdict"] in BATCHABLE_VERDICTS, name
            assert by_name[name]["diagnostics"] == [], name

    def test_every_order_sensitive_op_declares_a_sort_key(self, audit):
        missing = [
            entry["operation"]
            for entry in audit["operations"]
            if entry["order_sensitive"] and entry["sort_key"] is None
        ]
        assert missing == []

    def test_audit_is_byte_deterministic(self):
        first = json.dumps(audit_payload()["vectorize"], sort_keys=True)
        second = json.dumps(audit_payload()["vectorize"], sort_keys=True)
        assert first == second


class TestVerdictFingerprints:
    TEMPLATE = [
        {"func": "Groupby", "input": None, "output": "flows",
         "flowid": ["connection"]},
        {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
         "list": ["count", "mean:length"]},
        {"func": "Labels", "input": ["flows"], "output": "y"},
    ]

    def test_fingerprints_carry_verdicts(self):
        verdicts = verdict_fingerprints(
            self.TEMPLATE, outputs=["X", "y"]
        )
        funcs = {entry["func"] for entry in verdicts.values()}
        assert funcs == {"Groupby", "ApplyAggregates", "Labels"}
        for entry in verdicts.values():
            assert entry["verdict"] in (
                ELEMENTWISE, ROW_PARALLEL, SEQUENTIAL, OPAQUE
            )

    def test_equivalent_spellings_share_fingerprint_and_verdict(self):
        respelled = [
            {"func": "Groupby", "input": None, "output": "grouped",
             "flowid": ["connection"]},
            {"func": "ApplyAggregates", "input": ["grouped"],
             "output": "feats", "list": ["count", "mean:length"]},
            {"func": "Labels", "input": ["grouped"], "output": "labels"},
        ]
        left = verdict_fingerprints(self.TEMPLATE, outputs=["X", "y"])
        right = verdict_fingerprints(
            respelled, outputs=["feats", "labels"]
        )
        assert left == right


class TestTemplatePass:
    def test_l035_on_mixed_provenance_concat(self):
        template = [
            {"func": "SortByTime", "input": None, "output": "a"},
            {"func": "Downsample", "input": None, "output": "b",
             "max_packets": 100, "seed": 1},
            {"func": "ProtocolOneHot", "input": ["a"], "output": "Xa"},
            {"func": "ProtocolOneHot", "input": ["b"], "output": "Xb"},
            {"func": "ConcatFeatures", "input": ["Xa", "Xb"],
             "output": "X"},
        ]
        result = analyze_template(template, outputs=["X"])
        assert "L035" in result.codes()
        assert result.ok  # shape mismatches warn; runtime is the check

    def test_no_l035_on_shared_provenance(self):
        template = [
            {"func": "SortByTime", "input": None, "output": "a"},
            {"func": "ProtocolOneHot", "input": ["a"], "output": "Xa"},
            {"func": "PacketFields", "input": ["a"], "output": "Xb",
             "fields": ["length", "ttl"]},
            {"func": "ConcatFeatures", "input": ["Xa", "Xb"],
             "output": "X"},
        ]
        result = analyze_template(template, outputs=["X"])
        assert "L035" not in result.codes()

    def test_l035_on_provably_bad_select_columns(self):
        template = [
            {"func": "ProtocolOneHot", "input": None, "output": "X"},
            {"func": "SelectColumns", "input": ["X"], "output": "Xs",
             "indices": [0, 9]},
        ]
        result = analyze_template(template, outputs=["Xs"])
        assert "L035" in result.codes()

    def test_stock_catalog_templates_stay_warning_free(self):
        from repro.algorithms import ALGORITHMS

        for algorithm_id in sorted(ALGORITHMS):
            spec = ALGORITHMS[algorithm_id]
            result = analyze_template(
                spec.full_template(), outputs=["metrics"]
            )
            vector_codes = result.codes() & {
                "L035", "L036", "L037", "L038"
            }
            assert vector_codes == set(), (algorithm_id, vector_codes)
