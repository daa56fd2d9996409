"""Tests for the implementation-level effect/purity analyzer.

Covers the AST layer (repro.analysis.facts) with fixture sources for
every purity class, the false-positive guards that keep the stock
catalog clean, and the registry-facing layer (repro.analysis.safety):
diagnostics mapping, closure detection, lambda fallback, and the
regression guarantee that every stock operation audits pure/seeded.
"""

import ast
import textwrap

import pytest

from repro.analysis import audit_payload, facts
from repro.analysis.facts import (
    IO,
    PURE,
    SEEDED,
    STATEFUL,
    EffectKind,
    analyze_function,
    collect_module_context,
)
from repro.analysis.safety import operation_report
from repro.core.operations import OPERATIONS


def effects_of(source, name="op"):
    """Analyze function ``name`` inside a module source string."""
    tree = ast.parse(textwrap.dedent(source))
    ctx = collect_module_context(tree)
    node = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return analyze_function(node, module=ctx)


class TestPureOperations:
    def test_fresh_allocation_and_local_mutation_is_pure(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                out = np.zeros((len(inputs[0]), 4))
                out[:, 0] = 1.0
                out += 2.0
                return out
            """
        )
        assert fx.purity == PURE
        assert fx.findings == []

    def test_local_copy_then_mutate_is_pure(self):
        fx = effects_of(
            """
            def op(inputs, params):
                x = inputs[0].copy()
                x.sort()
                x[0] = -1
                return x
            """
        )
        assert fx.purity == PURE

    def test_call_result_is_fresh(self):
        # np.diff returns a new array: mutating it must not taint inputs
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                gaps = np.diff(inputs[0].ts, prepend=0.0)
                gaps[inputs[0].starts] = 0.0
                return gaps
            """
        )
        assert fx.purity == PURE

    def test_local_list_append_is_pure(self):
        fx = effects_of(
            """
            def op(inputs, params):
                columns = []
                for name in params["fields"]:
                    columns.append(name)
                return columns
            """
        )
        assert fx.purity == PURE

    def test_str_partition_on_params_is_pure(self):
        # regression guard: str.partition is not ndarray.partition
        fx = effects_of(
            """
            def op(inputs, params):
                out = []
                for spec in params["aggregates"]:
                    head, _, arg = spec.partition(":")
                    out.append(head)
                return out
            """
        )
        assert fx.purity == PURE

    def test_module_function_call_is_not_receiver_mutation(self):
        # np.sort(x) returns a copy; 'sort' must not match module calls
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.sort(inputs[0])
            """
        )
        assert fx.purity == PURE

    def test_constant_style_global_read_is_pure(self):
        fx = effects_of(
            """
            TABLE = {"a": 1}

            def op(inputs, params):
                return TABLE["a"]
            """
        )
        assert fx.purity == PURE


class TestInputMutation:
    def test_mutating_method_on_input(self):
        fx = effects_of(
            """
            def op(inputs, params):
                inputs[0].sort()
                return inputs[0]
            """
        )
        assert fx.purity == STATEFUL
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_item_assignment_through_alias(self):
        fx = effects_of(
            """
            def op(inputs, params):
                table = inputs[0]
                table.values[0] = 1
                return table
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_augassign_through_alias(self):
        fx = effects_of(
            """
            def op(inputs, params):
                x = inputs[0]
                x += 1
                return x
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_tuple_unpack_taints_both_names(self):
        fx = effects_of(
            """
            def op(inputs, params):
                left, right = inputs
                left.fill(0)
                return right
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_np_fill_diagonal_on_input(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                np.fill_diagonal(inputs[0], 0.0)
                return inputs[0]
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_np_fill_diagonal_on_local_is_pure(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                distance = 1.0 - np.abs(inputs[0])
                np.fill_diagonal(distance, 0.0)
                return distance
            """
        )
        assert fx.purity == PURE

    def test_out_kwarg_aimed_at_input(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                x = inputs[0]
                np.add(x, 1.0, out=x)
                return x
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_rng_shuffle_mutates_its_argument(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                rng = np.random.default_rng(params["seed"])
                rng.shuffle(inputs[0])
                return inputs[0]
            """
        )
        assert EffectKind.MUTATES_INPUT in fx.kinds()

    def test_params_item_assignment(self):
        fx = effects_of(
            """
            def op(inputs, params):
                params["cache"] = 1
                return inputs[0]
            """
        )
        assert EffectKind.MUTATES_PARAMS in fx.kinds()
        assert fx.purity == STATEFUL

    def test_params_setdefault(self):
        fx = effects_of(
            """
            def op(inputs, params):
                params.setdefault("limit", 10)
                return inputs[0]
            """
        )
        assert EffectKind.MUTATES_PARAMS in fx.kinds()

    def test_rebound_argument_name_is_fresh(self):
        fx = effects_of(
            """
            def op(inputs, params):
                inputs = list(inputs)
                inputs.append(None)
                return inputs
            """
        )
        assert fx.purity == PURE


class TestGlobalState:
    def test_global_declaration(self):
        fx = effects_of(
            """
            counter = 0

            def op(inputs, params):
                global counter
                counter += 1
                return inputs[0]
            """
        )
        assert EffectKind.WRITES_GLOBAL in fx.kinds()
        assert fx.purity == STATEFUL

    def test_append_to_module_list(self):
        fx = effects_of(
            """
            calls = []

            def op(inputs, params):
                calls.append(1)
                return inputs[0]
            """
        )
        assert EffectKind.WRITES_GLOBAL in fx.kinds()

    def test_read_of_lowercase_mutable_global(self):
        fx = effects_of(
            """
            cache = {}

            def op(inputs, params):
                return cache.get("x")
            """
        )
        assert EffectKind.READS_MUTABLE_GLOBAL in fx.kinds()
        assert fx.purity == STATEFUL

    def test_upper_case_registry_read_is_exempt(self):
        fx = effects_of(
            """
            REGISTRY = {}

            def op(inputs, params):
                return REGISTRY.get("x")
            """
        )
        assert EffectKind.READS_MUTABLE_GLOBAL not in fx.kinds()


class TestRandomness:
    def test_unseeded_default_rng(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.random.default_rng().normal(size=3)
            """
        )
        assert EffectKind.UNSEEDED_RNG in fx.kinds()
        assert fx.purity == STATEFUL

    def test_legacy_global_rng(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.random.rand(3)
            """
        )
        assert EffectKind.UNSEEDED_RNG in fx.kinds()

    @pytest.mark.parametrize("call", [
        "np.random.ranf(3)", "np.random.sample(3)", "np.random.bytes(4)",
        "random.triangular()", "random.gammavariate(1.0, 1.0)",
        "random.randbytes(4)",
    ])
    def test_every_global_rng_astlint_flags(self, call):
        fx = effects_of(
            f"""
            import random
            import numpy as np

            def op(inputs, params):
                return {call}
            """
        )
        assert EffectKind.UNSEEDED_RNG in fx.kinds()

    def test_constant_seed_is_seeded_stochastic(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                rng = np.random.default_rng(42)
                return rng.normal(size=3)
            """
        )
        assert fx.purity == SEEDED
        assert EffectKind.CONST_SEEDED_RNG in fx.kinds()
        assert fx.seed_params == ()

    def test_params_seed_direct(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                rng = np.random.default_rng(params["seed"])
                return rng.normal(size=3)
            """
        )
        assert fx.purity == SEEDED
        assert EffectKind.PARAM_SEEDED_RNG in fx.kinds()
        assert fx.seed_params == ("seed",)

    def test_params_seed_through_alias_and_converter(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                seed = int(params.get("seed", 0))
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
            """
        )
        assert fx.purity == SEEDED
        assert fx.seed_params == ("seed",)


class TestIO:
    def test_open_is_io(self):
        fx = effects_of(
            """
            def op(inputs, params):
                with open(params["path"]) as handle:
                    return handle.read()
            """
        )
        assert fx.purity == IO
        assert EffectKind.PERFORMS_IO in fx.kinds()

    def test_np_load_is_io(self):
        fx = effects_of(
            """
            import numpy as np

            def op(inputs, params):
                return np.load(params["path"])
            """
        )
        assert fx.purity == IO

    def test_stateful_beats_io(self):
        fx = effects_of(
            """
            def op(inputs, params):
                inputs[0].sort()
                with open("x") as handle:
                    return handle.read()
            """
        )
        assert fx.purity == STATEFUL


class TestModuleContext:
    def test_collects_bindings_and_mutable_globals(self):
        tree = ast.parse(
            "import numpy as np\n"
            "TABLE = {}\n"
            "cache = []\n"
            "LIMIT = 3\n"
            "def helper():\n    return 1\n"
        )
        ctx = collect_module_context(tree)
        assert {"np", "TABLE", "cache", "LIMIT", "helper"} <= set(ctx.bindings)
        assert set(ctx.mutable_globals) == {"TABLE", "cache"}
        assert "np" in ctx.imports

    def test_constant_style(self):
        assert facts.is_constant_style("OPERATIONS")
        assert facts.is_constant_style("_GRANULARITY_BY_FLOWID")
        assert facts.is_constant_style("__all__")
        assert not facts.is_constant_style("cache")


def kinds(record):
    """The effect kinds in a live body's facts record."""
    return {finding.kind for finding in record.effects}


class TestSafetyLayer:
    def test_lambda_source_is_conservatively_stateful(self):
        fx = facts.body_facts(eval("lambda inputs, params: None"))
        assert EffectKind.SOURCE_UNAVAILABLE in kinds(fx)
        assert fx.purity == STATEFUL

    def test_builtin_has_no_source(self):
        fx = facts.body_facts(len)
        assert EffectKind.SOURCE_UNAVAILABLE in kinds(fx)

    def test_mutable_closure_is_stateful(self):
        state = {"calls": 0}

        def op(inputs, params):
            return state

        fx = facts.body_facts(op)
        assert EffectKind.MUTABLE_CLOSURE in kinds(fx)
        assert fx.purity == STATEFUL

    def test_immutable_closure_is_fine(self):
        limit = 10

        def op(inputs, params):
            return limit

        fx = facts.body_facts(op)
        assert EffectKind.MUTABLE_CLOSURE not in kinds(fx)

    def test_diagnostic_codes_mapped(self):
        report = operation_report(OPERATIONS["Downsample"])
        assert report.purity == SEEDED
        assert report.seed_params == ("seed",)
        assert report.cacheable
        # param-threaded seeding is the desired state: no diagnostics
        assert report.codes() == ()

    def test_report_serializes(self):
        report = operation_report(OPERATIONS["Groupby"])
        payload = report.to_dict()
        assert payload["operation"] == "Groupby"
        assert payload["purity"] == PURE
        assert payload["cacheable"] is True
        assert payload["findings"] == []


class TestStockRegistry:
    @pytest.fixture(scope="class")
    def reports(self):
        return {
            report["operation"]: report
            for report in audit_payload()["effects"]["operations"]
        }

    def test_every_stock_operation_audits_clean(self, reports):
        assert set(reports) == set(OPERATIONS)
        unsafe = {
            name: [f["kind"] for f in report["findings"]]
            for name, report in reports.items()
            if not report["cacheable"]
        }
        assert unsafe == {}

    def test_downsample_is_the_only_stochastic_op(self, reports):
        seeded = [n for n, r in reports.items() if r["purity"] == SEEDED]
        assert seeded == ["Downsample"]
