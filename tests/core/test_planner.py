"""Tests for the shared-work planner: merging, diagnostics, renderings."""

import pytest

from repro.core import pipeline
from repro.analysis.diagnostics import Severity
from repro.analysis.planner import (
    build_matrix_plan,
    build_plan,
    render_dot,
    render_plan,
)
from repro.core.errors import TemplateDiagnosticError
from repro.core.operations import OPERATIONS, register_operation
from repro.core.types import ValueType


T_COUNT = [
    {"func": "Groupby", "input": None, "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
     "list": ["count"]},
    {"func": "Labels", "input": ["flows"], "output": "y"},
]

T_DURATION = [
    {"func": "Groupby", "input": None, "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
     "list": ["duration"]},
    {"func": "Labels", "input": ["flows"], "output": "y"},
]


def _codes(plan):
    return sorted({d.code for d in plan.diagnostics})


class TestMerge:
    def test_shared_prefix_interned_once(self):
        plan = build_plan(
            {"a": T_COUNT, "b": T_DURATION},
            datasets=("F0",),
            outputs=("X", "y"),
        )
        by_func = {}
        for stage in plan.stages:
            by_func.setdefault(stage.func, []).append(stage)
        assert len(by_func["Groupby"]) == 1
        assert by_func["Groupby"][0].refcount == 2
        assert by_func["Groupby"][0].consumers == ("a", "b")
        assert len(by_func["Labels"]) == 1
        # the diverging aggregates stay separate
        assert len(by_func["ApplyAggregates"]) == 2
        assert all(s.refcount == 1 for s in by_func["ApplyAggregates"])

    def test_outputs_map_to_stage_ids(self):
        plan = build_plan(
            {"a": T_COUNT, "b": T_DURATION},
            datasets=("F0",),
            outputs=("X", "y"),
        )
        stage_ids = set(plan.stage_map())
        for label in ("a", "b"):
            assert set(plan.outputs[label]) == {"X", "y"}
            assert set(plan.outputs[label].values()) <= stage_ids
        # both templates' y comes from the same shared Labels stage
        assert plan.outputs["a"]["y"] == plan.outputs["b"]["y"]
        assert plan.outputs["a"]["X"] != plan.outputs["b"]["X"]

    def test_cost_summary_counts_savings(self):
        plan = build_plan(
            {"a": T_COUNT, "b": T_DURATION},
            datasets=("F0",),
            outputs=("X", "y"),
        )
        summary = plan.cost_summary()
        assert summary["shared"] == 2  # Groupby + Labels
        assert summary["savings"] == pytest.approx(
            summary["unshared_cost"] - summary["planned_cost"]
        )
        assert summary["savings"] > 0


class TestDiagnostics:
    def test_l029_near_duplicate_spelling(self):
        spelled = [dict(T_DURATION[0], timeout=3600.0)] + T_DURATION[1:]
        plan = build_plan(
            {"a": T_COUNT, "b": spelled},
            datasets=("F0",),
            outputs=("X", "y"),
        )
        l029 = [d for d in plan.diagnostics if d.code == "L029"]
        assert len(l029) == 1
        assert l029[0].severity is Severity.WARNING
        assert "Groupby" in l029[0].message
        # the redundant spelling still merges into one shared stage
        groupby = [s for s in plan.stages if s.func == "Groupby"]
        assert len(groupby) == 1 and groupby[0].refcount == 2

    def test_l030_dead_branch(self):
        dead = T_COUNT + [
            {"func": "ApplyAggregates", "input": ["flows"],
             "output": "unused", "list": ["pps"]},
        ]
        plan = build_plan(
            {"a": dead}, datasets=("F0",), outputs=("X", "y")
        )
        l030 = [d for d in plan.diagnostics if d.code == "L030"]
        assert len(l030) == 1
        assert "unused" in l030[0].message

    def test_l031_stateful_prefix_not_shared(self):
        calls = []

        def _stateful(inputs, params):
            calls.append(1)  # module/closure state: audits stateful
            return inputs[0]

        register_operation(
            "PlannerStatefulFixture", (ValueType.PACKETS,),
            ValueType.PACKETS,
        )(_stateful)
        template = [
            {"func": "PlannerStatefulFixture", "input": None,
             "output": "pkts"},
            {"func": "Groupby", "input": ["pkts"], "output": "flows",
             "flowid": ["connection"]},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        try:
            plan = build_plan(
                {"a": template, "b": [dict(s) for s in template]},
                datasets=("F0",),
                outputs=("y",),
            )
        finally:
            OPERATIONS.pop("PlannerStatefulFixture", None)
        l031 = [d for d in plan.diagnostics if d.code == "L031"]
        assert l031 and all(d.severity is Severity.WARNING for d in l031)
        # nothing merged: every stage is per-template ("fp!label" ids)
        assert plan.shared_stages == ()
        assert all("!" in stage.stage_id for stage in plan.stages)
        assert all(not stage.shareable for stage in plan.stages)

    def test_l032_collision_detected(self, monkeypatch):
        monkeypatch.setattr(
            pipeline, "digest", lambda material: "deadbeef"
        )
        plan = build_plan(
            {"a": T_COUNT}, datasets=("F0",), outputs=("X", "y")
        )
        l032 = [d for d in plan.diagnostics if d.code == "L032"]
        assert l032 and all(d.severity is Severity.ERROR for d in l032)
        with pytest.raises(TemplateDiagnosticError):
            plan.analysis().raise_if_errors()


class TestMatrixPlan:
    def test_a13_a14_share_connection_prefix(self):
        plan = build_matrix_plan(["A13", "A14"], ["F0", "F1"])
        assert plan.algorithms == ("A13", "A14")
        assert plan.datasets == ("F0", "F1")
        assert sorted(plan.pairs) == [
            ("A13", "F0"), ("A13", "F1"), ("A14", "F0"), ("A14", "F1"),
        ]
        shared = {s.func for s in plan.shared_stages}
        assert shared == {"Groupby", "Labels", "AttackIds"}
        assert all(s.refcount == 2 for s in plan.shared_stages)
        assert not plan.analysis().errors

    def test_full_catalog_plan_builds_clean(self):
        plan = build_matrix_plan()
        assert len(plan.algorithms) >= 16
        assert plan.shared_stages  # the catalog provably shares work
        assert not plan.analysis().errors

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            build_matrix_plan(["A13"], ["F999"])


class TestSerialization:
    def test_renderings(self):
        plan = build_matrix_plan(["A13", "A14"], ["F0"])
        table = render_plan(plan)
        assert "Groupby" in table and "shared" in table
        dot = render_dot(plan)
        assert dot.startswith("digraph") and "Groupby" in dot
