"""Tests for the command-line interface."""

import json
import pickle

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestInventoryCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "P2" in out
        assert "CTU, 1-1" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "A06" in out and "Kitsune" in out

    def test_operations(self, capsys):
        assert main(["operations", "-v"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "-> flows" in out


class TestLintCommand:
    GOOD = [
        {"func": "Groupby", "input": None, "output": "flows",
         "flowid": ["connection"]},
        {"func": "Labels", "input": ["flows"], "output": "y"},
    ]

    def test_lint_clean_template(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(self.GOOD))
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_bad_template_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"func": "Teleport", "input": None, "output": "x"}]
        ))
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "L004" in out

    def test_lint_non_string_func_and_output(self, tmp_path, capsys):
        # diagnostics, not a traceback, for malformed names
        func = tmp_path / "func.json"
        func.write_text(json.dumps(
            [{"func": ["Labels"], "input": None, "output": "y"}]
        ))
        output = tmp_path / "output.json"
        output.write_text(json.dumps(
            [{"func": "Labels", "input": None, "output": ["y"]}]
        ))
        assert main(["lint", str(func), str(output)]) == 1
        out = capsys.readouterr().out
        assert "L004" in out and "L005" in out

    def test_lint_catalog_is_clean(self, capsys):
        assert main(["lint", "--catalog"]) == 0
        out = capsys.readouterr().out
        assert "16 template(s)" in out

    def test_lint_faithfulness_flag(self, tmp_path, capsys):
        path = tmp_path / "conn.json"
        path.write_text(json.dumps(self.GOOD))
        assert main(["lint", str(path), "--dataset", "F0"]) == 0
        capsys.readouterr()
        assert main(["lint", str(path), "--dataset", "P0"]) == 1
        out = capsys.readouterr().out
        assert "L016" in out

    @pytest.mark.parametrize("device_map", [
        {"abc": 1}, {"1": "x"}, {"1.5": 1}, {"99999999999999999999": 1},
    ], ids=repr)
    def test_malformed_device_map_is_an_l018(
        self, tmp_path, capsys, device_map
    ):
        # lint flags the map, and run-template refuses it with one
        # error line before generating any traffic
        path = tmp_path / "device-map.json"
        path.write_text(json.dumps([
            {"func": "DeviceLabels", "input": None, "output": "y",
             "device_map": device_map},
        ]))
        key = next(iter(device_map))
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "L018" in out and repr(key) in out
        assert main(["run-template", str(path), "F0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: L018 ")
        assert err.count("\n") == 1
        assert repr(key) in err

    def test_lint_nothing_to_lint(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_malformed_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        assert main(["lint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "broken.json" in err

    def test_lint_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.json")]) == 1

    def test_lint_python_file(self, tmp_path, capsys):
        path = tmp_path / "module.py"
        path.write_text(
            "TEMPLATE = [\n"
            "    {'func': 'Groupby', 'input': None, 'output': 'flows',\n"
            "     'flowid': ['connection']},\n"
            "    {'func': 'Labels', 'input': ['flows'], 'output': 'y'},\n"
            "]\n"
        )
        assert main(["lint", str(path), "-v"]) == 0
        out = capsys.readouterr().out
        assert "TEMPLATE" in out


class TestAuditCommand:
    def test_audit_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "seeded-stochastic" in out  # Downsample
        assert "0 stateful" in out

    def test_audit_json_payload(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["effects"]
        assert payload["summary"]["stateful"] == 0
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        downsample = by_name["Downsample"]
        assert downsample["purity"] == "seeded-stochastic"
        assert downsample["seed_params"] == ["seed"]
        assert downsample["cacheable"] is True

    def test_audit_json_is_deterministic(self, capsys):
        assert main(["audit", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)["effects"]
        names = [entry["operation"] for entry in payload["operations"]]
        assert names == sorted(names)
        for entry in payload["operations"]:
            assert entry["seed_params"] == sorted(entry["seed_params"])
            keys = [
                (f["line"], f["kind"], f["detail"])
                for f in entry["findings"]
            ]
            assert keys == sorted(keys)
        capsys.readouterr()
        assert main(["audit", "--json"]) == 0
        assert capsys.readouterr().out == out

    def test_audit_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"effects", "vectorize", "streamable", "races"}
        for section in payload.values():
            assert section["summary"]["total"] == len(section["operations"])

    def test_audit_strict_clean_registry_passes(self, capsys):
        assert main(["audit", "--strict"]) == 0

    def test_audit_strict_fails_on_stateful_op(self, capsys):
        from repro.core.operations import OPERATIONS, register_operation
        from repro.core.types import ValueType

        def _bad(inputs, params):
            inputs[0].sort()
            return inputs[0]

        register_operation(
            "AuditFixture", (ValueType.PACKETS,), ValueType.PACKETS
        )(_bad)
        try:
            assert main(["audit", "--strict", "-v"]) == 1
            captured = capsys.readouterr()
            assert "AuditFixture" in captured.err
            assert "L021" in captured.out
            assert "mutates" in captured.out  # -v shows finding detail
        finally:
            OPERATIONS.pop("AuditFixture", None)

    def test_text_prints_the_four_sections_in_order(self, capsys):
        assert main(["audit"]) == 0
        headers = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("== ")
        ]
        assert headers == [
            "== effects", "== vectorize", "== streamable", "== races",
        ]

    def test_catalog_adds_the_two_catalog_blocks(self, capsys):
        assert main(["audit", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["audit", "--json", "--catalog"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert [k for k in full if "catalog" in full[k]] == [
            "streamable", "vectorize",
        ]
        for key in plain:
            assert "catalog" not in plain[key]
            full[key].pop("catalog", None)
        assert full == plain

    def test_only_five_settable_flags(self):
        args = vars(build_parser().parse_args(["audit"]))
        assert set(args) - {"command", "fn"} == {
            "json", "out", "strict", "verbose", "catalog",
        }

    def test_strict_prints_each_reason_on_its_own_line(self, capsys):
        from repro.core.operations import OPERATIONS, register_operation
        from repro.core.types import ValueType

        def _racy(inputs, params):
            _CLI_RACE_SINK["strict"] = 1
            return inputs[0].length

        register_operation(
            "StrictReasonsFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_racy)
        try:
            assert main(["audit", "--strict"]) == 1
            lines = capsys.readouterr().err.splitlines()
        finally:
            OPERATIONS.pop("StrictReasonsFixture", None)
        assert lines == [
            "strict: effects: 1 operation(s) not proven safe: "
            "StrictReasonsFixture",
            "strict: races: 1 concurrency error(s) (L049-L052/L056)",
            "strict: races: 1 racy operation(s)",
        ]


class TestVectorizeCommand:
    """The vectorization section of ``repro audit``."""

    def test_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "elementwise" in out
        assert "windowed-sequential" in out

    def test_json_payload(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["vectorize"]
        summary = payload["summary"]
        assert summary["opaque"] == 0
        assert set(summary) == {
            "total", "elementwise", "row_parallel", "sequential", "opaque",
        }
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        assert by_name["ProtocolOneHot"]["verdict"] == "elementwise"
        assert by_name["SortByTime"]["verdict"] == "windowed-sequential"

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["audit", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())["vectorize"]
        assert payload["summary"]["total"] == len(payload["operations"])

    def test_catalog_attaches_fingerprint_verdicts(self, capsys):
        assert main(["audit", "--json", "--catalog"]) == 0
        payload = json.loads(capsys.readouterr().out)["vectorize"]
        assert "A14" in payload["catalog"]
        for fingerprints in payload["catalog"].values():
            for entry in fingerprints.values():
                assert set(entry) == {"func", "verdict"}

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["audit", "--strict"]) == 0

    def test_strict_fails_on_opaque_verdict(self, capsys):
        from repro.core.operations import OPERATIONS, register_operation
        from repro.core.types import ValueType

        # a lambda has no recoverable source: every analyzer is opaque
        register_operation(
            "VectorizeFixture", (ValueType.PACKETS,), ValueType.FEATURES
        )(eval("lambda inputs, params: None"))
        try:
            assert main(["audit", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "strict: vectorize: 1 opaque verdict(s)" in captured.err
            assert "VectorizeFixture" in captured.out
        finally:
            OPERATIONS.pop("VectorizeFixture", None)


class TestStreamableCommand:
    """The streaming-safety section of ``repro audit``."""

    def test_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "stateless" in out
        assert "batch-only" in out

    def test_json_payload(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["streamable"]
        summary = payload["summary"]
        assert summary["opaque"] == 0
        assert summary["errors"] == 0
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        assert by_name["KitsuneFeatures"]["verdict"] == "prefix-mergeable"
        assert by_name["KitsuneFeatures"]["stream_fn"] is True
        assert by_name["SortByTime"]["verdict"] == "batch-only"

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["audit", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())["streamable"]
        assert payload["summary"]["total"] == len(payload["operations"])

    def test_catalog_reports_per_template_streamability(self, capsys):
        assert main(["audit", "--json", "--catalog"]) == 0
        payload = json.loads(capsys.readouterr().out)["streamable"]
        assert "A14" in payload["catalog"]
        for entry in payload["catalog"].values():
            assert set(entry) == {"steps", "streamable"}
            for step in entry["steps"]:
                assert set(step) == {
                    "func", "verdict", "state_bound", "refusal"
                }

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["audit", "--strict"]) == 0

    def test_strict_fails_on_declaration_drift(self, capsys):
        import numpy as np

        from repro.core.operations import (
            OPERATIONS,
            register_operation,
            register_stream,
        )
        from repro.core.types import ValueType

        def _drifted(inputs, params):
            order = np.argsort(inputs[0].ts)
            return inputs[0].length[order].astype(
                np.float64
            ).reshape(-1, 1)

        def _drifted_stream(inputs, params, state):
            return _drifted(inputs, params)

        register_operation(
            "StreamableFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_drifted)
        register_stream("StreamableFixture")(_drifted_stream)
        try:
            assert main(["audit", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "L045" in captured.err
        finally:
            OPERATIONS.pop("StreamableFixture", None)


class TestRacesCommand:
    """The concurrency-safety section of ``repro audit``."""

    def test_table_lists_operations_and_modules(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "session-confined" in out
        assert "repro.obs.metrics" in out
        assert "racy module(s)" in out

    def test_json_payload(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["races"]
        summary = payload["summary"]
        assert summary["total"] == len(payload["operations"])
        assert summary["racy"] == 0
        assert summary["errors"] == 0
        modules = {m["module"] for m in payload["modules"]}
        assert "repro.serve.daemon" in modules
        assert "repro.obs.spans" in modules

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["audit", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())["races"]
        assert payload["summary"]["total"] == len(payload["operations"])
        assert payload["summary"]["racy"] == 0

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["audit", "--strict"]) == 0

    def test_strict_fails_on_racy_operation(self, capsys):
        from repro.core.operations import (
            OPERATIONS,
            register_operation,
        )
        from repro.core.types import ValueType

        def _racy(inputs, params):
            _CLI_RACE_SINK["last"] = len(inputs[0])
            return inputs[0].length

        register_operation(
            "RacyCliFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_racy)
        try:
            assert main(["audit", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "racy operation" in captured.err
        finally:
            OPERATIONS.pop("RacyCliFixture", None)

    def test_verbose_shows_write_evidence(self, capsys):
        from repro.core.operations import (
            OPERATIONS,
            register_operation,
        )
        from repro.core.types import ValueType

        def _racy(inputs, params):
            _CLI_RACE_SINK["verbose"] = 1
            return inputs[0].length

        register_operation(
            "VerboseRaceFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_racy)
        try:
            assert main(["audit", "-v"]) == 0
            out = capsys.readouterr().out
            assert "shared write -- _CLI_RACE_SINK" in out
        finally:
            OPERATIONS.pop("VerboseRaceFixture", None)


#: write target for the racy fixtures above -- the analyzer parses
#: this file and must see a module-global binding
_CLI_RACE_SINK: dict = {}


class TestEvaluationCommands:
    def test_evaluate_same_dataset(self, capsys):
        assert main(["evaluate", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "per attack" in out

    def test_matrix_and_figure(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        csv = tmp_path / "results.csv"
        assert main([
            "matrix", "--algorithms", "A13,A14", "--datasets", "F0,F1",
            "--out", str(results), "--csv", str(csv),
        ]) == 0
        payload = json.loads(results.read_text())
        assert len(payload) == 2 * (2 + 2)  # 2 algos x (2 same + 2 cross)
        assert csv.exists()
        capsys.readouterr()
        assert main(["figure", "fig10", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "F1" in out

    def test_profile(self, capsys):
        assert main(["profile", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "total:" in out


class TestFaultTolerantMatrix:
    def test_run_matrix_alias(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        assert main(["run-matrix", "--algorithms", "A14",
                     "--datasets", "F0", "--out", str(results)]) == 0
        payload = json.loads(results.read_text())
        assert isinstance(payload, list) and len(payload) == 1

    def test_bad_fault_spec_exits_2(self, tmp_path, capsys):
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0",
            "--faults", "nowhere:0.5", "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_chaos_then_resume_heals(self, tmp_path, capsys):
        journal = tmp_path / "chaos.jsonl"
        results = tmp_path / "results.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--keep-going", "--faults", "featurize:#1",
            "--checkpoint", str(journal), "--out", str(results),
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out
        assert "3 evaluations, 1 failure(s)" in out
        payload = json.loads(results.read_text())
        assert len(payload["results"]) == 3
        assert payload["failures"][0]["phase"] == "featurize"
        assert payload["failures"][0]["error_type"] == "FaultInjected"

        healed = tmp_path / "healed.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--keep-going", "--resume", str(journal), "--retry-failed",
            "--out", str(healed),
        ]) == 0
        assert "4 evaluations ->" in capsys.readouterr().out
        payload = json.loads(healed.read_text())
        assert isinstance(payload, list) and len(payload) == 4

    def test_retries_absorb_transient_fault(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--retries", "1", "--faults", "featurize:#1",
            "--out", str(results),
        ]) == 0
        payload = json.loads(results.read_text())
        assert isinstance(payload, list) and len(payload) == 4


class TestTemplateCommands:
    def test_template_write_and_run(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["template", "--starter", "connection-rf",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["run-template", str(out_file), "F0"]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "total:" in out


class TestPlanCommand:
    def test_plan_table(self, capsys):
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "shared stage(s)" in out

    def test_plan_lint_clean(self, capsys):
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0", "--lint", "--strict"]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err

    def test_plan_json(self, capsys):
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "version", "algorithms", "datasets", "pairs", "stages",
            "outputs", "diagnostics", "cost_summary",
        ]
        assert payload["algorithms"] == ["A13", "A14"]
        assert payload["stages"]

    def test_full_plan_json_is_pinned(self, capsys):
        # the whole catalog plan names every stage by its step identity,
        # so any drift in step_key or canonical ordering changes it
        import hashlib

        assert main(["plan", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7a7886a06d58f464c2e7344257d9bbe82fe926ddc5c077dc44fb773092913d30"
        )

    def test_plan_dot(self, capsys):
        assert main(["plan", "--algorithms", "A13",
                     "--datasets", "F0", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    @pytest.mark.parametrize("verb", ["plan", "matrix"])
    @pytest.mark.parametrize("flag, kind", [
        ("--algorithms", "algorithm"), ("--datasets", "dataset"),
    ])
    def test_unknown_id_exits_2(self, tmp_path, capsys, verb, flag, kind):
        argv = [verb, flag, "NOPE"]
        if verb == "matrix":
            argv += ["--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown {kind} id: 'NOPE'\n"
        assert not (tmp_path / "r.json").exists()


class TestObservabilityCommands:
    def test_evaluate_trace_exports_parseable_jsonl(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "out.jsonl"
        assert main(["evaluate", "A14", "F0", "--trace", str(trace)]) == 0
        capsys.readouterr()
        events = read_trace(trace)
        spans = [e for e in events if e["kind"] == "span"]
        names = {e["name"] for e in spans}
        assert {"evaluate", "featurize", "train", "test", "run"} <= names
        # per-step wall times sum to within each run span's duration
        for run in (e for e in spans if e["name"] == "run"):
            step_total = sum(
                e["attrs"].get("wall_seconds", 0.0) for e in spans
                if e["name"].startswith("step:")
                and e["parent_id"] == run["span_id"]
            )
            assert step_total <= run["duration_seconds"]

    def test_trace_flag_detached_after_run(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        assert main(["evaluate", "A14", "F0", "--trace", str(trace)]) == 0
        size = trace.stat().st_size
        capsys.readouterr()
        assert main(["evaluate", "A14", "F0"]) == 0
        assert trace.stat().st_size == size  # sink no longer attached

    def test_trace_renders_saved_file(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        main(["evaluate", "A14", "F0", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "evaluate" in out
        assert "└─" in out

    def test_trace_runs_a_command(self, capsys):
        assert main(["trace", "evaluate", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out  # the wrapped command's own output
        assert "step:Groupby" in out

    def test_trace_without_arguments_errors(self, capsys):
        assert main(["trace"]) == 2

    def test_trace_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("nope\n")
        assert main(["trace", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_metrics_reports_cache_hits_after_matrix(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["metrics", "matrix", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE engine_cache_hits_total counter" in text
        hits = next(
            int(line.split()[1]) for line in text.splitlines()
            if line.startswith("engine_cache_hits_total ")
        )
        assert hits > 0
        assert "bench_evaluations_completed_total" in text

    def test_metrics_alone_exits_zero(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out or "(no metrics recorded)" in out


class TestReportAndExport:
    def test_report_from_results(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        main(["matrix", "--algorithms", "A14", "--datasets", "F0,F1",
              "--out", str(results)])
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        assert main(["report", "--results", str(results),
                     "--out", str(report_path)]) == 0
        text = report_path.read_text()
        assert "# Lumen benchmark report" in text
        assert "A14" in text

    def test_export(self, tmp_path, capsys):
        assert main(["export", "F5", "--directory", str(tmp_path)]) == 0
        assert (tmp_path / "F5.pcap").exists()
        assert (tmp_path / "F5.labels.csv").exists()


class TestInspectAndDiff:
    def test_inspect(self, capsys):
        assert main(["inspect", "F5"]) == 0
        out = capsys.readouterr().out
        assert "packets" in out
        assert "malicious" in out

    def test_diff_identical_is_clean(self, tmp_path, capsys):
        results = tmp_path / "r.json"
        main(["matrix", "--algorithms", "A13", "--datasets", "F0",
              "--out", str(results)])
        capsys.readouterr()
        assert main(["diff", str(results), str(results)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_detects_change(self, tmp_path, capsys):
        import json

        results = tmp_path / "r.json"
        main(["matrix", "--algorithms", "A13", "--datasets", "F0",
              "--out", str(results)])
        payload = json.loads(results.read_text())
        payload[0]["precision"] = 0.01
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diff", str(results), str(mutated)]) == 1
        assert "down" in capsys.readouterr().out


class TestMatrixProgressFlags:
    def test_progress_file_journals_every_cell(self, tmp_path, capsys):
        progress_file = tmp_path / "p.jsonl"
        assert main(["matrix", "--algorithms", "A14", "--datasets",
                     "F0,F1", "--out", str(tmp_path / "r.json"),
                     "--progress-file", str(progress_file)]) == 0
        events = [json.loads(line)
                  for line in progress_file.read_text().splitlines()
                  if line.strip()]
        assert len(events) == 4
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["done"] == events[-1]["total"] == 4
        assert all(e["kind"] == "progress" for e in events)

    def test_progress_flag_renders_to_stderr(self, tmp_path, capsys):
        assert main(["matrix", "--algorithms", "A14", "--datasets", "F0",
                     "--out", str(tmp_path / "r.json"),
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cells 1/1" in err


class TestServeCommand:
    """The ``repro serve`` daemon entry point and its status probe."""

    @pytest.fixture(autouse=True)
    def _clean_state(self):
        from repro.faults import uninstall
        from repro.obs import get_metrics

        get_metrics().reset()
        uninstall()
        yield
        get_metrics().reset()
        uninstall()

    def test_requires_a_dataset_or_status(self, capsys):
        assert main(["serve"]) == 2
        assert "dataset id is required" in capsys.readouterr().err

    def test_unknown_dataset_rejected(self, capsys):
        assert main(["serve", "NOPE"]) == 2

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        assert main(["serve", "F0", "--faults", "serve_chunk:0.5"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'score_chunk'?" in err

    def test_bounded_virtual_run(self, tmp_path, capsys):
        status_file = tmp_path / "status.json"
        assert main([
            "serve", "F0", "--virtual-time",
            "--chunk-seconds", "5", "--max-chunks", "3",
            "--status-file", str(status_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "served 3 chunk(s)" in out
        status = json.loads(status_file.read_text())
        assert status["state"] == "stopped"
        assert status["chunks_scored"] == 3

    def test_kitnet_model_without_outputs(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.ml import KitNET

        trained_on = []
        fit = KitNET.fit

        def recording_fit(model, X, y=None):
            trained_on.append(X)
            return fit(model, X, y)

        monkeypatch.setattr(KitNET, "fit", recording_fit)
        cache = tmp_path / "kitnet.pkl"
        # the session collects the scored output beside the template's
        # final one, so --model needs no --outputs
        assert main([
            "serve", "F0", "--virtual-time", "--model", "kitnet",
            "--epochs", "1", "--chunk-seconds", "10", "--max-chunks", "3",
            "--model-cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "served 3 chunk(s)" in out
        assert "anomalies" in out
        # the cached threshold is the 0.98 quantile of the training
        # prefix's scores, exactly as a second scoring pass would give
        model, threshold = pickle.loads(cache.read_bytes())
        (features,) = trained_on
        assert threshold == float(
            np.quantile(model.score_samples(features), 0.98)
        )

    def test_chaos_run_verifies_against_offline(self, tmp_path, capsys):
        quarantine = tmp_path / "quarantine.jsonl"
        results = tmp_path / "results.jsonl"
        assert main([
            "serve", "F1", "--virtual-time", "--outputs", "X,y",
            "--chunk-seconds", "10", "--retries", "3",
            "--faults", "score_chunk:0.3", "--fault-seed", "7",
            "--quarantine", str(quarantine),
            "--out", str(results),
            "--verify-offline",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out
        assert "byte-equal" in out
        assert "MISMATCH" not in out
        records = [json.loads(line)
                   for line in results.read_text().splitlines()
                   if line.strip()]
        assert records and all(r["kind"] == "chunk" for r in records)

    def test_status_probe_missing_file(self, tmp_path, capsys):
        assert main(["serve", "--status",
                     str(tmp_path / "absent.json")]) == 2
        assert "no status file" in capsys.readouterr().err

    def test_status_probe_alive_and_stopped(self, tmp_path, capsys):
        from repro.serve import ServeStatus

        path = tmp_path / "status.json"
        ServeStatus(state="serving", chunks_scored=4).write(path)
        assert main(["serve", "--status", str(path)]) == 0
        assert "serving" in capsys.readouterr().out
        ServeStatus(state="stopped").write(path)
        assert main(["serve", "--status", str(path)]) == 3

    def test_serve_metrics_surface_in_exposition(self, capsys):
        assert main(["metrics", "serve", "F0", "--virtual-time",
                     "--chunk-seconds", "5", "--max-chunks", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve_chunks_scored_total 2" in out
        assert "engine_uptime_seconds" in out


#: bad files per format: what each kind of bad input looks like on disk
BAD_FILES = {
    "template": {
        "invalid JSON": "{not json",
        "wrong shape": '{"func": "Groupby"}',
    },
    "store": {
        "invalid JSON": "{not json",
        "wrong shape": "[1, 2]",
        "unknown field": '[{"algorithm": "A14", "bogus": 1}]',
    },
    "journal": {
        "wrong shape": "[1, 2]\n",
        "unknown field": '{"kind": "result", "bogus": 1}\n',
    },
    "status": {
        "invalid JSON": "{not json",
        "wrong shape": "[1, 2]",
        "unknown field": '{"bogus": 1}',
        "wrong type": '{"state": "serving", "uptime_seconds": "x"}',
    },
}

#: file-reading verbs: (argv with {path} for the bad file, its format)
FILE_VERBS = {
    "run-template": (["run-template", "{path}", "F0"], "template"),
    "diff": (["diff", "{path}", "{path}"], "store"),
    "report": (["report", "--results", "{path}"], "store"),
    "figure": (["figure", "fig5", "--results", "{path}"], "store"),
    "matrix --resume": (["matrix", "--algorithms", "A14", "--datasets",
                         "F0", "--resume", "{path}", "--out",
                         "{out}"], "journal"),
    "serve --status": (["serve", "--status", "{path}"], "status"),
}


def _bad_input_cases():
    cases = [
        pytest.param(argv, None, id="-".join(argv))
        for argv in (
            ["evaluate", "A99", "F0"], ["evaluate", "A13", "F99"],
            ["profile", "A14", "F99"], ["inspect", "F99"],
            ["export", "F99"],
            ["serve", "F0", "--virtual-time", "--max-chunks", "3",
             "--outputs", "nope"],
        )
    ]
    for verb, (argv, fmt) in FILE_VERBS.items():
        kinds = {"missing file": None, **BAD_FILES[fmt]}
        name = verb.replace(" --", "-")
        cases += [
            pytest.param(argv, text, id=f"{name}-{kind}".replace(" ", "-"))
            for kind, text in kinds.items()
        ]
    return cases


class TestBadInput:
    """Input the program cannot use is one ``error:`` line and exit 2,
    reported by ``main`` for every verb -- never a traceback."""

    @pytest.mark.parametrize("argv, text", _bad_input_cases())
    def test_one_line_and_exit_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out.json"
        argv = [
            arg.format(path=path, out=out) if "{" in arg else arg
            for arg in argv
        ]
        if argv[0] == "export":
            argv += ["--directory", str(tmp_path / "exported")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_report_on_an_empty_store(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["report", "--results", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot report on an empty result store\n"
        )

    @pytest.mark.parametrize("name", ["fig5", "fig10"])
    def test_figure_of_an_empty_store_renders(self, tmp_path, name):
        # an empty store is valid input: the grid is empty, not a crash
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["figure", name, "--results", str(path)]) == 0
