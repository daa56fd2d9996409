"""Tests for the static template analyzer.

Assertions are on stable diagnostic *codes*, not message substrings --
that is the analyzer's contract with its users.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import CODES, analyze_pipeline, analyze_template
from repro.analysis.sources import templates_in_python_file
from repro.core import (
    ExecutionEngine,
    Pipeline,
    TemplateDiagnosticError,
    TemplateError,
)
from repro.core.operations import OPERATIONS
from repro.core.pipeline import SOURCE_NAME, OperationCall
from repro.net.table import PacketTable

REPO_ROOT = Path(__file__).resolve().parents[2]

GOOD = [
    {"func": "Groupby", "input": None, "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
     "list": ["count", "duration", "mean:length"]},
    {"func": "Labels", "input": ["flows"], "output": "y"},
    {"func": "model", "model_type": "RandomForest", "input": None,
     "output": "clf"},
    {"func": "train", "input": ["clf", "X", "y"], "output": "fitted"},
    {"func": "predict", "input": ["fitted", "X"], "output": "preds"},
    {"func": "evaluate", "input": ["preds", "y"], "output": "metrics"},
]


def codes_of(template, **kwargs):
    return analyze_template(template, **kwargs).codes()


class TestParseLints:
    def test_good_template_is_clean(self):
        result = analyze_template(GOOD)
        assert result.ok
        assert result.diagnostics == []

    def test_empty_template(self):
        assert "L001" in codes_of([])

    def test_non_list_template(self):
        assert "L001" in codes_of({"func": "Groupby"})

    def test_step_not_a_mapping(self):
        assert "L002" in codes_of(["not a dict"])

    def test_missing_func(self):
        assert "L003" in codes_of([{"output": "x"}])

    def test_unknown_operation(self):
        assert "L004" in codes_of(
            [{"func": "Teleport", "input": None, "output": "x"}]
        )

    def test_missing_output(self):
        assert "L005" in codes_of(
            [{"func": "Groupby", "input": None, "flowid": ["connection"]}]
        )

    @pytest.mark.parametrize("func", [["Labels"], {"a": 1}, 7])
    def test_non_string_func_is_unknown_operation(self, func):
        result = analyze_template(
            [{"func": func, "input": None, "output": "y"}]
        )
        (diagnostic,) = result.errors
        assert diagnostic.code == "L004"
        assert repr(func) in diagnostic.message

    @pytest.mark.parametrize("output", [["y"], {"a": 1}, 7])
    def test_non_string_output_rejected(self, output):
        template = [{"func": "Labels", "input": None, "output": output}]
        assert "L005" in codes_of(template)
        with pytest.raises(TemplateDiagnosticError):
            Pipeline.from_template(template)

    def test_bad_input_spec(self):
        template = [dict(GOOD[0], input=42)]
        assert "L006" in codes_of(template)

    def test_one_run_reports_many_defects(self):
        # tolerant parsing: every defect surfaces in a single run
        template = [
            {"func": "Teleport", "output": "a"},
            {"output": "b"},
            {"func": "Groupby", "input": None, "flowid": ["connection"]},
        ]
        found = codes_of(template)
        assert {"L004", "L003", "L005"} <= found


class TestDataflowLints:
    def test_undefined_input(self):
        template = [
            {"func": "ApplyAggregates", "input": ["nowhere"], "output": "X",
             "list": ["count"]},
        ]
        assert "L009" in codes_of(template)

    def test_forward_reference(self):
        # consuming a name defined by a *later* step is still undefined
        template = [
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["count"]},
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"]},
        ]
        result = analyze_template(template)
        assert "L009" in result.codes()
        [diag] = [d for d in result.errors if d.code == "L009"]
        assert diag.step == 0

    def test_wrong_arity(self):
        template = [dict(GOOD[0]), dict(GOOD[1], input=["flows", "flows"])]
        assert "L008" in codes_of(template)

    def test_type_mismatch(self):
        # ApplyAggregates wants flows, gets raw packets
        template = [
            {"func": "FilterPackets", "input": None, "output": "pkts",
             "keep": "tcp"},
            {"func": "ApplyAggregates", "input": ["pkts"], "output": "X",
             "list": ["count"]},
        ]
        assert "L010" in codes_of(template)

    def test_train_fed_packets_is_ill_typed(self):
        template = [
            {"func": "FilterPackets", "input": None, "output": "pkts",
             "keep": "tcp"},
            {"func": "Labels", "input": None, "output": "y"},
            {"func": "model", "model_type": "RandomForest", "input": None,
             "output": "clf"},
            {"func": "train", "input": ["clf", "pkts", "y"], "output": "m"},
        ]
        assert "L010" in codes_of(template)

    def test_duplicate_output_warns(self):
        template = [dict(GOOD[0]), dict(GOOD[0])]
        result = analyze_template(template)
        assert "L011" in {d.code for d in result.warnings}
        assert result.ok  # warnings do not block execution

    def test_dead_operation_warns(self):
        template = [
            dict(GOOD[0]),
            {"func": "ZeekConnLog", "input": ["flows"], "output": "unused"},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        result = analyze_template(template)
        assert "L012" in {d.code for d in result.warnings}

    def test_requested_output_respected(self):
        template = [
            dict(GOOD[0]),
            {"func": "ZeekConnLog", "input": ["flows"], "output": "states"},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        result = analyze_template(template, outputs=["states", "y"])
        assert "L012" not in result.codes()

    def test_missing_requested_output(self):
        assert "L019" in codes_of(GOOD, outputs=["no_such_value"])


class TestParameterLints:
    def test_missing_required_param(self):
        template = [{"func": "Groupby", "input": None, "output": "flows"}]
        assert "L007" in codes_of(template)

    def test_unknown_param(self):
        template = [dict(GOOD[0], warp=9)]
        assert "L007" in codes_of(template)

    def test_unknown_model_type(self):
        template = [
            {"func": "model", "model_type": "QuantumForest", "input": None,
             "output": "clf"},
        ]
        assert "L015" in codes_of(template)

    def test_unsupported_flowid(self):
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["macAddress"]},
        ]
        assert "L017" in codes_of(template)

    def test_bad_aggregate_spec(self):
        template = [
            dict(GOOD[0]),
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["entropy:warp_core"]},
        ]
        assert "L018" in codes_of(template)

    def test_bad_field_name(self):
        template = [
            {"func": "FieldExtract", "input": None, "output": "pkts",
             "param": ["warp_factor"]},
        ]
        assert "L018" in codes_of(template)

    def test_nonpositive_window(self):
        template = [
            dict(GOOD[0]),
            {"func": "TimeSlice", "input": ["flows"], "output": "w",
             "window": -1.0},
        ]
        assert "L018" in codes_of(template)

    @pytest.mark.parametrize("device_map", [
        {"abc": 1}, {"1": "x"}, {"1.5": 1}, {"99999999999999999999": 1},
        {str(2**32): 1}, {"-1": 1}, {"1": True}, {"1": 2**63}, [[1, 2]],
    ], ids=repr)
    def test_malformed_device_map(self, device_map):
        template = [
            {"func": "DeviceLabels", "input": None, "output": "y",
             "device_map": device_map},
        ]
        result = analyze_template(template)
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == "L018"
        if isinstance(device_map, dict):
            assert repr(next(iter(device_map))) in diagnostic.message

    def test_device_map_keys_from_json_or_python(self):
        # JSON keys are strings; a Python template (as in
        # examples/device_classification.py) maps int or numpy sources
        device_map = {
            "0": 0, str(2**32 - 1): -1, 167772161: 2,
            np.uint32(167772162): np.int64(3),
        }
        template = [
            {"func": "DeviceLabels", "input": None, "output": "y",
             "device_map": device_map},
        ]
        assert analyze_template(template).diagnostics == []


class TestOrderingLints:
    def test_train_before_model(self):
        template = [
            dict(GOOD[0]), dict(GOOD[1]), dict(GOOD[2]),
            {"func": "train", "input": ["clf", "X", "y"], "output": "fit"},
            {"func": "model", "model_type": "RandomForest", "input": None,
             "output": "clf"},
        ]
        assert "L013" in codes_of(template)

    def test_train_without_model(self):
        template = [
            dict(GOOD[0]), dict(GOOD[1]), dict(GOOD[2]),
            {"func": "train", "input": ["zzz", "X", "y"], "output": "fit"},
        ]
        assert "L013" in codes_of(template)

    def test_trained_never_applied_warns(self):
        template = GOOD[:5]
        result = analyze_template(template)
        assert "L014" in {d.code for d in result.warnings}

    def test_full_skeleton_has_no_ordering_lints(self):
        assert codes_of(GOOD).isdisjoint({"L013", "L014"})


class TestFaithfulness:
    def test_connection_groupby_on_packet_dataset(self):
        # P0 has packet-granular ground truth; connection-level
        # aggregation cannot be faithfully evaluated on it
        result = analyze_template(GOOD, dataset_id="P0")
        assert "L016" in result.codes()
        assert not result.ok

    def test_connection_groupby_on_connection_dataset(self):
        assert "L016" not in codes_of(GOOD, dataset_id="F0")

    def test_finer_groupby_on_coarser_dataset_ok(self):
        # labels propagate down: 5tuple grouping on connection labels
        template = [dict(GOOD[0], flowid=["5tuple"])] + GOOD[1:]
        assert "L016" not in codes_of(template, dataset_id="F0")

    def test_unknown_dataset(self):
        assert "L020" in codes_of(GOOD, dataset_id="F999")

    def test_no_dataset_no_faithfulness_lint(self):
        assert codes_of(GOOD).isdisjoint({"L016", "L020"})


class TestEntryPoints:
    def test_from_template_raises_with_codes(self):
        template = [
            {"func": "Teleport", "input": None, "output": "x"},
        ]
        with pytest.raises(TemplateDiagnosticError) as info:
            Pipeline.from_template(template)
        assert "L004" in info.value.codes()
        assert info.value.diagnostics[0].severity.value == "error"

    def test_diagnostic_error_is_a_template_error(self):
        with pytest.raises(TemplateError):
            Pipeline.from_template([{"func": "Teleport", "output": "x"}])

    def test_engine_rejects_hand_built_bad_pipeline(self):
        # no template involved: the pipeline is constructed directly,
        # and the engine's own analyzer call still fails fast
        train = OPERATIONS["train"]
        pipeline = Pipeline([
            OperationCall(
                operation=train,
                inputs=(SOURCE_NAME, SOURCE_NAME, SOURCE_NAME),
                output="m",
                params={},
            )
        ])
        engine = ExecutionEngine(track_memory=False)
        with pytest.raises(TemplateDiagnosticError) as info:
            engine.run(pipeline, PacketTable.empty(0))
        assert "L010" in info.value.codes()
        # nothing ran: no profile report was produced
        assert engine.last_report is None

    def test_analyze_pipeline_on_good_template(self):
        assert analyze_pipeline(Pipeline.from_template(GOOD)).ok


class TestCatalogIsClean:
    def test_all_catalog_algorithms_lint_clean(self):
        from repro.algorithms import ALGORITHMS

        for algorithm_id, spec in sorted(ALGORITHMS.items()):
            result = analyze_template(spec.full_template())
            assert result.ok, f"{algorithm_id}: {result.render()}"

    def test_starter_templates_lint_clean(self):
        from repro.core.template_io import STARTER_TEMPLATES

        for name, template in STARTER_TEMPLATES.items():
            result = analyze_template(list(template))
            assert result.ok, f"{name}: {result.render()}"

    def test_example_templates_lint_clean(self):
        targets = []
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            targets.extend(templates_in_python_file(path))
        assert targets, "expected literal templates in examples/"
        for target in targets:
            result = analyze_template(target.template)
            assert result.ok, f"{target.label}: {result.render()}"


class TestFailFastBeforeAnyTrace:
    def test_ill_typed_template_rejected_without_generation(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance scenario: a template feeding raw PACKETS to
        'train' is rejected with a stable code before any trace is
        generated -- the traffic builder must never be invoked."""
        from repro.cli import main
        from repro.traffic.network import NetworkScenario

        calls = []

        def forbidden(self, *args, **kwargs):
            calls.append(self.name)
            raise AssertionError("lint must not generate traffic")

        monkeypatch.setattr(NetworkScenario, "generate", forbidden)

        template = [
            {"func": "FilterPackets", "input": None, "output": "pkts",
             "keep": "tcp"},
            {"func": "Labels", "input": None, "output": "y"},
            {"func": "model", "model_type": "RandomForest", "input": None,
             "output": "clf"},
            {"func": "train", "input": ["clf", "pkts", "y"], "output": "m"},
        ]
        path = tmp_path / "ill_typed.json"
        path.write_text(json.dumps(template))

        rc = main(["lint", str(path), "--dataset", "F0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "L010" in out
        assert calls == []


class TestDocumentation:
    def test_every_code_documented(self):
        text = (REPO_ROOT / "docs" / "TEMPLATES.md").read_text()
        for code in CODES:
            assert code in text, f"{code} missing from docs/TEMPLATES.md"

    def test_every_code_has_a_title(self):
        for code, title in CODES.items():
            assert code.startswith("L") and len(code) == 4
            assert title
