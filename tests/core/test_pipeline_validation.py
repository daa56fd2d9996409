"""Tests for template parsing and static validation."""

import hashlib
from pathlib import Path

import pytest

from repro.algorithms.catalog import ALGORITHMS
from repro.analysis.sources import templates_in_python_file
from repro.bench.runner import _units_template
from repro.core import OPERATIONS, Pipeline, TemplateError
from repro.core.pipeline import SOURCE_NAME, params_token
from repro.core.template_io import STARTER_TEMPLATES
from repro.serve.daemon import DEFAULT_TEMPLATE

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def minimal_template():
    return [
        {"func": "Groupby", "input": None, "output": "flows",
         "flowid": ["connection"]},
        {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
         "list": ["count", "duration"]},
    ]


class TestParsing:
    def test_minimal_template_parses(self):
        pipeline = Pipeline.from_template(minimal_template())
        assert len(pipeline.calls) == 2
        assert pipeline.output_name == "X"

    def test_empty_template_rejected(self):
        with pytest.raises(TemplateError):
            Pipeline.from_template([])

    def test_unknown_operation_rejected(self):
        with pytest.raises(TemplateError, match="unknown operation"):
            Pipeline.from_template(
                [{"func": "Explode", "input": None, "output": "x"}]
            )

    def test_missing_func_rejected(self):
        with pytest.raises(TemplateError, match="no 'func'"):
            Pipeline.from_template([{"input": None, "output": "x"}])

    def test_missing_output_rejected(self):
        with pytest.raises(TemplateError, match="no 'output'"):
            Pipeline.from_template(
                [{"func": "Groupby", "input": None, "flowid": ["5tuple"]}]
            )

    def test_missing_required_param_rejected(self):
        with pytest.raises(TemplateError, match="missing required"):
            Pipeline.from_template(
                [{"func": "Groupby", "input": None, "output": "flows"}]
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(TemplateError, match="unknown parameters"):
            Pipeline.from_template(
                [
                    {"func": "Groupby", "input": None, "output": "flows",
                     "flowid": ["5tuple"], "bogus": 1}
                ]
            )

    def test_param_alias_maps_to_first_required(self):
        # the paper's templates say "param": [...fields...]
        pipeline = Pipeline.from_template(
            [
                {"func": "FieldExtract", "input": None, "output": "pkts",
                 "param": ["srcIP", "dstIP"]}
            ]
        )
        assert pipeline.calls[0].params["fields"] == ["srcIP", "dstIP"]

    def test_none_input_binds_to_source_for_packet_ops(self):
        pipeline = Pipeline.from_template(minimal_template())
        assert pipeline.calls[0].inputs == (SOURCE_NAME,)

    def test_string_input_accepted(self):
        template = minimal_template()
        template[1]["input"] = "flows"
        pipeline = Pipeline.from_template(template)
        assert pipeline.calls[1].inputs == ("flows",)


class TestDataflowValidation:
    def test_undefined_input_rejected(self):
        template = minimal_template()
        template[1]["input"] = ["nonexistent"]
        with pytest.raises(TemplateError, match="not defined"):
            Pipeline.from_template(template)

    def test_use_before_definition_rejected(self):
        template = [
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["count"]},
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["5tuple"]},
        ]
        with pytest.raises(TemplateError, match="not defined"):
            Pipeline.from_template(template)

    def test_type_mismatch_rejected(self):
        # feeding a feature matrix into Groupby (wants packets)
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["5tuple"]},
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["count"]},
            {"func": "Groupby", "input": ["X"], "output": "bad",
             "flowid": ["5tuple"]},
        ]
        with pytest.raises(TemplateError, match="type"):
            Pipeline.from_template(template)

    def test_wrong_arity_rejected(self):
        template = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["5tuple"]},
            {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
             "list": ["count"]},
            {"func": "Labels", "input": ["flows"], "output": "y"},
            # train wants (model, features, labels): give it two inputs
            {"func": "train", "input": ["X", "y"], "output": "m"},
        ]
        with pytest.raises(TemplateError, match="input"):
            Pipeline.from_template(template)

    def test_consumers_tracks_last_use(self):
        pipeline = Pipeline.from_template(minimal_template())
        consumers = pipeline.consumers()
        assert consumers["flows"] == 1
        assert consumers[SOURCE_NAME] == 0


def known_templates() -> dict[str, list[dict]]:
    """Every template the repo ships: catalog, runner, starters, serve
    default and the module-level example templates."""
    known = {}
    for algorithm_id, spec in sorted(ALGORITHMS.items()):
        known[f"catalog:{algorithm_id}"] = spec.full_template()
        known[f"units:{algorithm_id}"] = _units_template(spec)
    for name, template in sorted(STARTER_TEMPLATES.items()):
        known[f"starter:{name}"] = template
    known["serve:DEFAULT_TEMPLATE"] = DEFAULT_TEMPLATE
    for target in templates_in_python_file(EXAMPLES / "new_algorithm.py"):
        known["example:" + target.label.rsplit(":", 1)[1]] = target.template
    return known


#: sha256 prefix of each known template's parsed calls
#: (name | inputs | output | params token, one line per call)
CALLS_DIGESTS = {
    "catalog:A00": "e173e83adf7b008a",
    "units:A00": "54632c3649333957",
    "catalog:A01": "a9c461f996eddb93",
    "units:A01": "11bc5548bd048906",
    "catalog:A02": "f5c38f55d5b28270",
    "units:A02": "00339015653ef223",
    "catalog:A03": "8cfd533538ba938f",
    "units:A03": "03c24febb9709f47",
    "catalog:A04": "fd3dfe38556d8f70",
    "units:A04": "f9178bca715ff36a",
    "catalog:A05": "7e85f9d51cb6cbd6",
    "units:A05": "830eafde266bef1a",
    "catalog:A06": "04d6b7d943809a4e",
    "units:A06": "4f51369d692b0792",
    "catalog:A07": "19f771876b74d143",
    "units:A07": "45aaaa4bef17543d",
    "catalog:A08": "f65c393efcb40730",
    "units:A08": "45aaaa4bef17543d",
    "catalog:A09": "d2b83970f2ba3dca",
    "units:A09": "45aaaa4bef17543d",
    "catalog:A10": "52b5bb5d0cadec29",
    "units:A10": "5442e5ad450dbac4",
    "catalog:A11": "ab15055521de6e22",
    "units:A11": "8daa98af2fa55245",
    "catalog:A12": "30dbc3d02bdc8f91",
    "units:A12": "3f3e4d04d862c977",
    "catalog:A13": "e234549a0865060b",
    "units:A13": "834fce9c0b4560d0",
    "catalog:A14": "ae3cffd396ef799d",
    "units:A14": "8f779d57dbb763d6",
    "catalog:A15": "2c031991b712b571",
    "units:A15": "ff4d96872a4668a6",
    "starter:connection-rf": "f9f4182b6e86d5db",
    "starter:packet-anomaly": "775833816a88f6a7",
    "starter:windowed-flow": "2c6a5c985b539b05",
    "serve:DEFAULT_TEMPLATE": "89d64c68f65a8948",
    "example:MY_FEATURES": "f2f03b9148c7f32a",
    "example:MY_MODEL": "7279f6fe78c6742d",
}


class TestParsedCalls:
    def test_every_known_template_is_pinned(self):
        assert set(known_templates()) == set(CALLS_DIGESTS)

    @pytest.mark.parametrize("label", sorted(CALLS_DIGESTS))
    def test_calls_match_pinned_digest(self, label):
        template = [dict(step) for step in known_templates()[label]]
        text = "\n".join(
            f"{call.name}|{','.join(call.inputs)}|{call.output}|"
            f"{params_token(call.params)}"
            for call in Pipeline.from_template(template).calls
        )
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == CALLS_DIGESTS[label]


class TestOperationRegistry:
    def test_roughly_thirty_operations(self):
        # the paper: "around 30 unique operations"
        assert len(OPERATIONS) >= 25

    def test_every_operation_documented(self):
        for name, operation in OPERATIONS.items():
            assert operation.description, f"{name} lacks a description"

    def test_duplicate_registration_rejected(self):
        from repro.core.operations import register_operation
        from repro.core.types import ValueType

        with pytest.raises(ValueError, match="twice"):
            register_operation("Groupby", (), ValueType.ANY)(lambda i, p: None)
