"""Tests for the shared facts layer (repro.analysis.facts).

Each operation body is loaded and walked once no matter how many of
the four analyzers ask about it, each module file is parsed once, and
the shared-access walk stays lazy: the engine's per-step verdicts
(purity, row dependence, streaming) never pay for it.
"""

import importlib.util
from collections import Counter

import pytest

from repro.analysis import facts
from repro.analysis.concurrency import operation_concurrency_report
from repro.analysis.safety import operation_report
from repro.analysis.streamable import operation_stream_report
from repro.analysis.vectorize import operation_vector_report
from repro.core import operations
from repro.core.operations import OPERATIONS

ALL_REPORTS = (
    operation_report,
    operation_vector_report,
    operation_stream_report,
    operation_concurrency_report,
)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty analysis cache, so every fact is computed in the test."""
    monkeypatch.setattr(facts, "_CACHE", {})


def counting(monkeypatch, name):
    """Wrap ``facts.<name>`` and return the list of its arguments."""
    calls = []
    real = getattr(facts, name)

    def wrapper(arg, *rest):
        calls.append(arg)
        return real(arg, *rest)

    monkeypatch.setattr(facts, name, wrapper)
    return calls


def bodies_of(operation):
    bodies = [operation.fn, operation.stream_fn]
    return [body for body in bodies if body is not None]


# every body kind: fn alone (DeviceLabels, ProtocolOneHot) and
# fn + stream_fn (KitsuneFeatures)
@pytest.mark.parametrize(
    "name", ["DeviceLabels", "KitsuneFeatures", "ProtocolOneHot"]
)
class TestComputedOnce:
    def test_each_body_is_loaded_once(self, name, fresh_cache, monkeypatch):
        operation = OPERATIONS[name]
        bodies = bodies_of(operation)
        assert len(bodies) == (1 if operation.stream_fn is None else 2)
        loads = counting(monkeypatch, "load_source")
        for report in ALL_REPORTS:
            report(operation)
            report(operation)
        assert Counter(loads) == {body: 1 for body in bodies}

    def test_module_is_parsed_once(self, name, fresh_cache, monkeypatch):
        parses = counting(monkeypatch, "_parse_module")
        for report in ALL_REPORTS:
            report(OPERATIONS[name])
        assert len(parses) == 1

    def test_engine_verdicts_skip_the_access_walk(
        self, name, fresh_cache, monkeypatch
    ):
        operation = OPERATIONS[name]
        walks = counting(monkeypatch, "_access")
        for report in ALL_REPORTS[:3]:
            report(operation)
        assert walks == []
        assert facts.body_facts(operation.fn).access is None
        operation_concurrency_report(operation)
        assert len(walks) == len(bodies_of(operation))
        assert facts.body_facts(operation.fn).access is not None


class TestBodyFacts:
    def test_record_is_cached_per_body(self, fresh_cache):
        fn = OPERATIONS["Labels"].fn
        assert facts.body_facts(fn) is facts.body_facts(fn)

    def test_unavailable_source_yields_one_finding_per_walk(self, fresh_cache):
        record = facts.body_facts(len, access=True)
        assert record.node is None and record.access is None
        assert [f.kind for f in record.effects] == [
            facts.EffectKind.SOURCE_UNAVAILABLE
        ]
        assert [f.kind for f in record.rows] == [
            facts.RowKind.SOURCE_UNAVAILABLE
        ]
        assert record.purity == facts.STATEFUL


PROBE = """\
from repro.core.operations import register_operation
from repro.core.types import ValueType


@register_operation("ShiftedProbe", (ValueType.FEATURES,), ValueType.FEATURES)
def shifted_probe(inputs, params):
    return inputs[0] + 1
"""

#: lines that put a stateful, seedless body where the probe's
#: decorator stood at import (line 5)
SHIFT = """\
import random

_SINK = {}

def noisy(inputs, params):
    _SINK["x"] = random.random()
    return inputs[0]


"""


class TestImportedBody:
    def test_a_file_edited_after_import_is_not_judged(
        self, tmp_path, monkeypatch, fresh_cache
    ):
        monkeypatch.setattr(operations, "OPERATIONS", dict(OPERATIONS))
        path = tmp_path / "shifted_probe.py"
        path.write_text(PROBE)
        spec = importlib.util.spec_from_file_location("shifted_probe", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        path.write_text(SHIFT + PROBE)
        operation = operations.OPERATIONS["ShiftedProbe"]
        for report in ALL_REPORTS:
            report(operation)
        record = facts.body_facts(operation.fn)
        assert record.node.name == "shifted_probe"
        assert record.effects == ()
        assert operation_report(operation).purity == facts.PURE
