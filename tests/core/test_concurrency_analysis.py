"""Tests for the concurrency-safety analyzer.

Covers lock discovery and the ``with``-held walker, shared-state
classification into the four verdicts, the lock-acquisition graph with
cycle detection, bare acquire/release detection, thread-hostile
callees, escape analysis on carried stream state, the registry-facing
reports with the L049-L053/L056 diagnostics (positive and negative
fixture operations), and the full-registry audit regression.
"""

import ast
import textwrap
import threading

import pytest

from repro.analysis.concurrency import (
    LOCK_GUARDED,
    RACY,
    READ_ONLY_SHARED,
    SESSION_CONFINED,
    audit_concurrency,
    classify_shared,
    module_concurrency_report,
    operation_concurrency_report,
)
from repro.analysis.facts import (
    bare_lock_ops,
    class_access_sites,
    class_locks,
    collect_module_context,
    lock_cycles,
    lock_order_edges,
    make_resolver,
    module_locks,
    shared_access_sites,
    state_escape_audit,
    thread_hostile_calls,
    unguarded_module_state,
)
from repro.core.operations import (
    OPERATIONS,
    register_operation,
    register_stream,
)
from repro.core.types import ValueType

# module-level fixtures the analyzer sees when it parses this file:
# a real lock, a constant-style registry, and a lowercase mutable
# global (reads of the latter demote an op to read-only-shared)
_TEST_LOCK = threading.Lock()
_RACY_SINK: dict = {}
shared_counters = {"hits": 0}


def parse(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


def fn_of(source: str, name: str = "op") -> ast.FunctionDef:
    tree = parse(source)
    return next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )


def sites_of(source: str, shared: set, name: str = "op"):
    tree = parse(source)
    locks = module_locks(tree)
    resolve = make_resolver(frozenset(locks))
    return shared_access_sites(
        fn_of(source, name), frozenset(shared), resolve
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


class TestLockDiscovery:
    def test_module_locks_found(self):
        tree = parse(
            """
            import threading

            _lock = threading.Lock()
            _GUARD: threading.RLock = threading.RLock()
            plain = {}
            """
        )
        assert set(module_locks(tree)) == {"_lock", "_GUARD"}

    def test_class_locks_found(self):
        tree = parse(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.cv: threading.Condition = threading.Condition()
                    self.items = []
            """
        )
        cls = tree.body[1]
        assert set(class_locks(cls)) == {"_lock", "cv"}


class TestSharedAccessClassification:
    def test_unguarded_write_is_racy(self):
        source = """
            registry = {}

            def op(inputs, params):
                registry["k"] = 1
                return inputs[0]
            """
        info = classify_shared(sites_of(source, {"registry"}))["registry"]
        assert info["verdict"] == RACY
        assert info["unguarded"]

    def test_guarded_write_is_lock_guarded(self):
        source = """
            import threading

            _lock = threading.Lock()
            registry = {}

            def op(inputs, params):
                with _lock:
                    registry["k"] = 1
                return inputs[0]
            """
        info = classify_shared(sites_of(source, {"registry"}))["registry"]
        assert info["verdict"] == LOCK_GUARDED
        assert info["guard"] == "_lock"

    def test_mixed_guarded_and_bare_write_is_racy(self):
        source = """
            import threading

            _lock = threading.Lock()
            registry = {}

            def op(inputs, params):
                with _lock:
                    registry["k"] = 1
                registry["j"] = 2
                return inputs[0]
            """
        info = classify_shared(sites_of(source, {"registry"}))["registry"]
        assert info["verdict"] == RACY
        assert info["mixed"]

    def test_reads_only_stay_read_only_shared(self):
        source = """
            registry = {}

            def op(inputs, params):
                return registry.get("k")
            """
        info = classify_shared(sites_of(source, {"registry"}))["registry"]
        assert info["verdict"] == READ_ONLY_SHARED
        assert info["reads"] >= 1

    def test_mutating_method_counts_as_write(self):
        source = """
            log = []

            def op(inputs, params):
                log.append(1)
                return inputs[0]
            """
        info = classify_shared(sites_of(source, {"log"}))["log"]
        assert info["verdict"] == RACY
        assert ".append() call" in info["unguarded"][0][1]

    def test_local_shadow_is_not_shared(self):
        source = """
            registry = {}

            def op(inputs, params):
                registry = {}
                registry["k"] = 1
                return registry
            """
        sites = sites_of(source, {"registry"})
        assert [s for s in sites if s.kind == "write"] == []

    def test_imported_module_function_is_not_a_mutation(self):
        tree = parse(
            """
            import numpy as np

            def op(inputs, params):
                return np.sort(inputs[0].length)
            """
        )
        ctx = collect_module_context(tree)
        sites = shared_access_sites(
            fn_of("""
            import numpy as np

            def op(inputs, params):
                return np.sort(inputs[0].length)
            """),
            frozenset(ctx.bindings),
            make_resolver(frozenset()),
            imports=ctx.imports,
        )
        assert [s for s in sites if s.kind == "write"] == []


class TestLockGraph:
    def test_nested_acquisition_builds_edges(self):
        tree = parse(
            """
            import threading

            _a = threading.Lock()
            _b = threading.Lock()

            def op():
                with _a:
                    with _b:
                        pass
            """
        )
        resolve = make_resolver(frozenset(module_locks(tree)))
        fn = next(
            n for n in tree.body if isinstance(n, ast.FunctionDef)
        )
        edges = lock_order_edges(fn, resolve)
        assert "_b" in edges.get("_a", {})
        assert lock_cycles(edges) == []

    def test_inverted_order_is_a_cycle(self):
        tree = parse(
            """
            import threading

            _a = threading.Lock()
            _b = threading.Lock()

            def one():
                with _a:
                    with _b:
                        pass

            def two():
                with _b:
                    with _a:
                        pass
            """
        )
        resolve = make_resolver(frozenset(module_locks(tree)))
        edges: dict = {}
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for held, acquired in lock_order_edges(fn, resolve).items():
                edges.setdefault(held, {}).update(acquired)
        cycles = lock_cycles(edges)
        assert cycles and set(cycles[0]) >= {"_a", "_b"}


class TestBareLocksAndHostileCalls:
    def test_bare_acquire_release_detected(self):
        tree = parse(
            """
            import threading

            _lock = threading.Lock()

            def op():
                _lock.acquire()
                try:
                    pass
                finally:
                    _lock.release()
            """
        )
        ops = bare_lock_ops(tree, frozenset({"_lock"}))
        assert {(recv, method) for _, recv, method in ops} == {
            ("_lock", "acquire"), ("_lock", "release"),
        }

    def test_with_statement_is_clean(self):
        tree = parse(
            """
            import threading

            _lock = threading.Lock()

            def op():
                with _lock:
                    pass
            """
        )
        assert bare_lock_ops(tree, frozenset({"_lock"})) == []

    def test_hostile_calls_found(self):
        node = fn_of(
            """
            import os
            import numpy as np

            def op(inputs, params):
                os.chdir("/tmp")
                np.random.seed(0)
                os.environ["TZ"] = "UTC"
                return inputs[0]
            """
        )
        dotted = {d for _, d in thread_hostile_calls(node)}
        assert "os.chdir" in dotted
        assert "np.random.seed" in dotted
        assert any("environ" in d for d in dotted)


class TestEscapeAnalysis:
    def test_state_assigned_to_global_escapes(self):
        node = fn_of(
            """
            def op(table, params, state):
                global latest
                latest = state
                return table, state
            """
        )
        escapes = state_escape_audit(node, "state", frozenset({"latest"}))
        assert escapes

    def test_state_stored_into_shared_container_escapes(self):
        node = fn_of(
            """
            def op(table, params, state):
                registry["live"] = state
                return table, state
            """
        )
        escapes = state_escape_audit(
            node, "state", frozenset({"registry"})
        )
        assert escapes

    def test_alias_of_state_is_tracked(self):
        node = fn_of(
            """
            def op(table, params, state):
                carrier = state
                registry["live"] = carrier
                return table, state
            """
        )
        escapes = state_escape_audit(
            node, "state", frozenset({"registry"})
        )
        assert escapes

    def test_confined_state_is_clean(self):
        node = fn_of(
            """
            def op(table, params, state):
                state = dict(state or {})
                state["n"] = state.get("n", 0) + len(table)
                return table, state
            """
        )
        assert state_escape_audit(node, "state", frozenset()) == []


class TestUnguardedModuleState:
    def test_lowercase_mutable_global_flagged(self):
        tree = parse(
            """
            pending = {}

            def handle(key):
                pending[key] = 1
            """
        )
        problems = unguarded_module_state(tree)
        names = {name for _, name, _ in problems}
        assert names == {"pending"}

    def test_register_functions_exempt(self):
        tree = parse(
            """
            TABLE = {}

            def register_defaults():
                TABLE["a"] = 1
            """
        )
        assert unguarded_module_state(tree) == []

    def test_lock_guarded_write_is_clean(self):
        tree = parse(
            """
            import threading

            _lock = threading.Lock()
            TABLE = {}

            def handle(key):
                with _lock:
                    TABLE[key] = 1
            """
        )
        assert unguarded_module_state(tree) == []


class TestOperationReports:
    def test_clean_op_is_session_confined(self, scratch_ops):
        def clean(inputs, params):
            return inputs[0].length * 2.0

        operation = scratch_ops("CleanProbe", clean)
        report = operation_concurrency_report(operation)
        assert report.verdict == SESSION_CONFINED
        assert report.diagnostics == ()

    def test_global_write_is_racy_l049(self, scratch_ops):
        def racy(inputs, params):
            _RACY_SINK["last"] = len(inputs[0])
            return inputs[0].length

        operation = scratch_ops("RacyProbe", racy)
        report = operation_concurrency_report(operation)
        assert report.verdict == RACY
        assert "L049" in report.codes()

    def test_guarded_write_is_lock_guarded(self, scratch_ops):
        def guarded(inputs, params):
            with _TEST_LOCK:
                _RACY_SINK["last"] = len(inputs[0])
            return inputs[0].length

        operation = scratch_ops("GuardedProbe", guarded)
        report = operation_concurrency_report(operation)
        assert report.verdict == LOCK_GUARDED
        assert report.guards == ("_TEST_LOCK",)
        assert report.diagnostics == ()

    def test_mutable_global_read_is_read_only_shared(self, scratch_ops):
        def reader(inputs, params):
            return inputs[0].length * float(shared_counters["hits"] + 1)

        operation = scratch_ops("ReaderProbe", reader)
        report = operation_concurrency_report(operation)
        assert report.verdict == READ_ONLY_SHARED
        assert report.diagnostics == ()

    def test_hostile_callee_is_racy_l056(self, scratch_ops):
        def hostile(inputs, params):
            import os

            os.putenv("PROBE", "1")
            return inputs[0].length

        operation = scratch_ops("HostileProbe", hostile)
        report = operation_concurrency_report(operation)
        assert report.verdict == RACY
        assert "L056" in report.codes()

    def test_stream_state_escape_is_racy_l052(self, scratch_ops):
        def fn(inputs, params):
            return inputs[0].length

        def leaky_stream(table, params, state):
            _RACY_SINK["state"] = state
            return table.length, state

        operation = scratch_ops(
            "LeakyStream", fn, stream_fn=leaky_stream, stream="stateless"
        )
        report = operation_concurrency_report(operation)
        assert report.verdict == RACY
        assert "L052" in report.codes()

    def test_opaque_body_is_refused(self, scratch_ops):
        operation = scratch_ops(
            "OpaqueProbe", eval("lambda inputs, params: inputs[0]")
        )
        report = operation_concurrency_report(operation)
        assert report.verdict == "opaque"


class TestRegistryAudit:
    def test_stock_registry_is_fully_classified(self):
        payload = audit_concurrency()
        summary = payload["summary"]
        assert summary["total"] == len(OPERATIONS)
        assert summary["racy"] == 0
        assert summary["errors"] == 0
        assert summary["module_cycles"] == 0
        assert summary["racy_modules"] == 0
        for op in payload["operations"]:
            assert op["verdict"] in (
                SESSION_CONFINED, LOCK_GUARDED, READ_ONLY_SHARED,
            )

    def test_obs_modules_are_lock_guarded(self):
        for module in ("repro.obs.metrics", "repro.obs.spans"):
            report = module_concurrency_report(module)
            assert report["verdict"] == LOCK_GUARDED, module
            assert report["cycles"] == []
            assert report["errors"] == 0, report["diagnostics"]

    def test_module_report_finds_planted_race(self, tmp_path):
        # module_concurrency_report only loads importable modules;
        # exercise the same machinery on a parsed tree instead
        tree = parse(
            """
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def good(self, x):
                    with self._lock:
                        self.items.append(x)

                def bad(self, x):
                    self.items.append(x)
            """
        )
        sites = class_access_sites(tree.body[1], frozenset())
        info = classify_shared(sites)["Shared.items"]
        assert info["verdict"] == RACY
        assert info["mixed"]

