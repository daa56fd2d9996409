"""Tests for runtime value typing and profiling report helpers."""

import numpy as np
import pytest

from repro.core.profiling import OperationProfile, ProfileReport
from repro.core.types import (
    TypeInfo,
    ValueType,
    check_type,
    compatible,
    infer_type,
    infer_type_info,
)
from repro.flows import assemble_connections
from repro.ml import GaussianNB
from repro.net.table import PacketTable


class TestInferType:
    def test_packets(self):
        assert infer_type(PacketTable.empty(3)) is ValueType.PACKETS

    def test_flows(self):
        flows = assemble_connections(PacketTable.empty(0))
        assert infer_type(flows) is ValueType.FLOWS

    def test_features_vs_labels(self):
        assert infer_type(np.zeros((3, 2))) is ValueType.FEATURES
        assert infer_type(np.zeros(3, dtype=np.int64)) is ValueType.LABELS
        assert infer_type(np.zeros(3, dtype=bool)) is ValueType.LABELS

    def test_float_vector_is_not_labels(self):
        # a 1-D float array is a feature vector, not a label array
        assert infer_type(np.zeros(3)) is ValueType.ANY

    def test_odd_array_shapes_are_any(self):
        assert infer_type(np.float64(1.0).reshape(())) is ValueType.ANY
        assert infer_type(np.zeros((2, 2, 2))) is ValueType.ANY

    def test_metrics(self):
        assert infer_type({"precision": 1.0}) is ValueType.METRICS
        assert infer_type({"n": 3, "f1": np.float64(0.5)}) is ValueType.METRICS

    def test_non_numeric_dict_is_not_metrics(self):
        assert infer_type({"arrays": np.zeros(3)}) is ValueType.ANY
        assert infer_type({1: 2.0}) is ValueType.ANY

    def test_model(self):
        assert infer_type(GaussianNB()) is ValueType.MODEL

    def test_any(self):
        assert infer_type("a string") is ValueType.ANY


class TestInferTypeInfo:
    def test_packets_carry_row_count(self):
        info = infer_type_info(PacketTable.empty(5))
        assert info == TypeInfo(ValueType.PACKETS, rows=5)

    def test_flows_carry_row_count(self):
        flows = assemble_connections(PacketTable.empty(0))
        info = infer_type_info(flows)
        assert info.kind is ValueType.FLOWS
        assert info.rows == len(flows)

    def test_matrix_carries_shape_and_dtype(self):
        info = infer_type_info(np.zeros((7, 3)))
        assert info == TypeInfo(
            ValueType.FEATURES, rows=7, columns=3, dtype="float64"
        )

    def test_labels_carry_dtype(self):
        info = infer_type_info(np.zeros(4, dtype=np.int64))
        assert info == TypeInfo(ValueType.LABELS, rows=4, dtype="int64")

    def test_object_matrix_is_visible_to_the_vector_gate(self):
        # the engine refuses batched execution on dtype == "object"
        info = infer_type_info(np.empty((2, 2), dtype=object))
        assert info.kind is ValueType.FEATURES
        assert info.dtype == "object"

    def test_scalars_have_no_shape_facts(self):
        info = infer_type_info({"precision": 1.0})
        assert info == TypeInfo(ValueType.METRICS)
        assert infer_type_info("x") == TypeInfo(ValueType.ANY)

    def test_infer_type_is_the_kind_projection(self):
        value = np.zeros((2, 2))
        assert infer_type(value) is infer_type_info(value).kind


class TestCheckType:
    def test_accepts_match(self):
        check_type(np.zeros((2, 2)), ValueType.FEATURES, "here")

    def test_any_accepts_everything(self):
        check_type(object(), ValueType.ANY, "here")

    def test_labels_predictions_interchangeable(self):
        check_type(np.zeros(3, dtype=np.int64), ValueType.PREDICTIONS, "here")

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError, match="expected a flows"):
            check_type(np.zeros((2, 2)), ValueType.FLOWS, "op")

    def test_untyped_value_rejected_for_typed_input(self):
        # statically ANY matches anything; at run time it means the
        # value has no pipeline type
        with pytest.raises(TypeError, match="got any"):
            check_type(np.zeros(3), ValueType.FEATURES, "op")


class TestCompatible:
    def test_the_type_rule(self):
        assert compatible(ValueType.FLOWS, ValueType.FLOWS)
        assert compatible(ValueType.ANY, ValueType.MODEL)
        assert compatible(ValueType.MODEL, ValueType.ANY)
        assert compatible(ValueType.LABELS, ValueType.PREDICTIONS)
        assert compatible(ValueType.PREDICTIONS, ValueType.LABELS)
        assert not compatible(ValueType.FEATURES, ValueType.PACKETS)
        assert not compatible(ValueType.LABELS, ValueType.FEATURES)


class TestProfileReport:
    def make_report(self):
        return ProfileReport(
            [
                OperationProfile(0, "Groupby", "flows", 0.5, 1000),
                OperationProfile(1, "ApplyAggregates", "X", 0.1, 5000),
                OperationProfile(2, "Labels", "y", 0.0, 10, cached=True),
            ]
        )

    def test_totals(self):
        report = self.make_report()
        assert report.total_seconds == pytest.approx(0.6)
        assert report.peak_memory_bytes == 5000

    def test_hotspots_exclude_cached(self):
        hotspots = self.make_report().hotspots(top=5)
        assert [h.operation for h in hotspots] == ["Groupby", "ApplyAggregates"]

    def test_empty_report(self):
        report = ProfileReport()
        assert report.total_seconds == 0.0
        assert report.peak_memory_bytes == 0
        assert report.hotspots() == []

    def test_render_alignment(self):
        text = self.make_report().render()
        assert "Groupby" in text
        assert "yes" in text  # the cached row
