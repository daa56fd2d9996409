"""Analyzer passes: parameter schemas, type propagation, graph lints.

Each pass walks the :class:`~repro.analysis.graph.TemplateGraph` and
appends diagnostics; none of them execute anything.  The pass pipeline
is assembled by :func:`repro.analysis.analyze_template`.
"""

from __future__ import annotations

import operator
from typing import Callable, Collection

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.graph import StepNode, TemplateGraph
from repro.core.errors import TemplateError
from repro.core.operations import (
    FILTER_PREDICATES,
    GRANULARITY_BY_FLOWID,
    MODEL_TYPES,
    _NPRINT_LAYERS,
    check_aggregate_spec,
    resolve_field,
)
from repro.core.pipeline import SOURCE_NAME
from repro.core.types import ValueType, compatible

# ----------------------------------------------------------------------
# Parameter pass: schemas plus per-operation value checks
# ----------------------------------------------------------------------


def _check_model(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    model_type = node.params.get("model_type")
    if model_type not in MODEL_TYPES:
        diagnostics.append(
            Diagnostic(
                "L015", Severity.ERROR,
                f"unknown model type {model_type!r}",
                step=node.index, operation=node.func,
                hint=f"known model types: {', '.join(MODEL_TYPES)}",
            )
        )


def _check_groupby(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    flowid = node.params.get("flowid")
    if not isinstance(flowid, (list, tuple)) or tuple(flowid) not in GRANULARITY_BY_FLOWID:
        supported = [list(key) for key in GRANULARITY_BY_FLOWID]
        diagnostics.append(
            Diagnostic(
                "L017", Severity.ERROR,
                f"unsupported flowid {flowid!r}; supported: {supported}",
                step=node.index, operation=node.func,
            )
        )


def _check_fields(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    fields = node.params.get("fields")
    if not isinstance(fields, (list, tuple)):
        diagnostics.append(
            Diagnostic(
                "L018", Severity.ERROR,
                f"'fields' must be a list of field names, got {fields!r}",
                step=node.index, operation=node.func,
            )
        )
        return
    for name in fields:
        try:
            resolve_field(name)
        except TemplateError as exc:
            diagnostics.append(
                Diagnostic(
                    "L018", Severity.ERROR, str(exc),
                    step=node.index, operation=node.func,
                    hint="see docs/TEMPLATES.md for the packet columns "
                    "and their paper aliases",
                )
            )


def _check_aggregates(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    specs = node.params.get("list")
    if not isinstance(specs, (list, tuple)) or not specs:
        diagnostics.append(
            Diagnostic(
                "L018", Severity.ERROR,
                "ApplyAggregates needs a non-empty list of specs",
                step=node.index, operation=node.func,
            )
        )
        return
    for spec in specs:
        try:
            check_aggregate_spec(spec)
        except TemplateError as exc:
            diagnostics.append(
                Diagnostic(
                    "L018", Severity.ERROR, str(exc),
                    step=node.index, operation=node.func,
                    hint="see the ApplyAggregates table in docs/TEMPLATES.md",
                )
            )


def _check_filter(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    keep = node.params.get("keep")
    if keep not in FILTER_PREDICATES:
        diagnostics.append(
            Diagnostic(
                "L018", Severity.ERROR,
                f"unknown packet predicate: {keep!r}",
                step=node.index, operation=node.func,
                hint=f"one of: {', '.join(FILTER_PREDICATES)}",
            )
        )


def _check_nprint(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    layers = node.params.get("layers", [])
    unknown = set(layers) - set(_NPRINT_LAYERS) if isinstance(layers, (list, tuple)) else {layers}
    if unknown:
        diagnostics.append(
            Diagnostic(
                "L018", Severity.ERROR,
                f"unknown nprint layers: {sorted(map(str, unknown))}",
                step=node.index, operation=node.func,
                hint=f"available layers: {', '.join(_NPRINT_LAYERS)}",
            )
        )


def _check_positive(key: str) -> Callable[[StepNode, list[Diagnostic]], None]:
    def check(node: StepNode, diagnostics: list[Diagnostic]) -> None:
        value = node.params.get(key)
        try:
            bad = float(value) <= 0
        except (TypeError, ValueError):
            bad = True
        if bad:
            diagnostics.append(
                Diagnostic(
                    "L018", Severity.ERROR,
                    f"{key} must be a positive number, got {value!r}",
                    step=node.index, operation=node.func,
                )
            )

    return check


def _whole(value) -> int | None:
    """``value`` as an int when it is one (a bool is not), else ``None``."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_device_map(node: StepNode, diagnostics: list[Diagnostic]) -> None:
    def bad(message: str) -> None:
        diagnostics.append(
            Diagnostic(
                "L018", Severity.ERROR, message,
                step=node.index, operation=node.func,
                hint="map each integer IPv4 source address (a string "
                "key in JSON) to an integer class id",
            )
        )

    device_map = node.params.get("device_map")
    if not isinstance(device_map, dict):
        bad(f"'device_map' must be an object, got {device_map!r}")
        return
    for key, value in device_map.items():
        try:
            ip = int(key) if isinstance(key, str) else _whole(key)
        except ValueError:
            ip = None
        if ip is None or not 0 <= ip < 2**32:
            bad(f"device_map key {key!r} is not an integer IPv4 source "
                "in [0, 2**32)")
            continue
        class_id = _whole(value)
        if class_id is None or not -(2**63) <= class_id < 2**63:
            bad(f"device_map key {key!r} maps to {value!r}, not an "
                "int64 class id")


#: per-operation parameter *value* checks (schemas come from the
#: operation registry itself)
PARAM_CHECKERS: dict[str, Callable[[StepNode, list[Diagnostic]], None]] = {
    "model": _check_model,
    "Groupby": _check_groupby,
    "FieldExtract": _check_fields,
    "PacketFields": _check_fields,
    "ApplyAggregates": _check_aggregates,
    "FilterPackets": _check_filter,
    "NprintEncode": _check_nprint,
    "Downsample": _check_positive("max_packets"),
    "TimeSlice": _check_positive("window"),
    "FirstNPackets": _check_positive("n"),
    "DeviceLabels": _check_device_map,
}


def pass_parameters(graph: TemplateGraph, diagnostics: list[Diagnostic]) -> None:
    """Statically invoke every operation's parameter schema, then the
    per-operation value checks."""
    for node in graph.nodes:
        operation = node.operation
        if operation is None:
            continue
        try:
            node.params = operation.validate_params(dict(node.raw_params))
        except TemplateError as exc:
            diagnostics.append(
                Diagnostic(
                    "L007", Severity.ERROR, str(exc),
                    step=node.index, operation=node.func,
                )
            )
            node.params = dict(node.raw_params)
            continue
        checker = PARAM_CHECKERS.get(operation.name)
        if checker is not None:
            checker(node, diagnostics)


# ----------------------------------------------------------------------
# Dataflow pass: arity, definedness, type propagation, dead values
# ----------------------------------------------------------------------


def pass_dataflow(
    graph: TemplateGraph,
    diagnostics: list[Diagnostic],
    outputs: Collection[str] | None = None,
) -> None:
    """Propagate value types through the graph and lint its shape."""
    producers = graph.producers()
    defined: dict[str, ValueType] = {SOURCE_NAME: ValueType.PACKETS}
    consumed: set[str] = set()

    for node in graph.nodes:
        operation = node.operation
        expected = operation.input_types if operation is not None else ()
        if operation is not None and len(node.inputs) != len(expected):
            diagnostics.append(
                Diagnostic(
                    "L008", Severity.ERROR,
                    f"takes {len(expected)} input(s), got {len(node.inputs)}",
                    step=node.index, operation=node.func,
                    hint="inputs bind positionally to "
                    f"({', '.join(t.value for t in expected) or 'nothing'})",
                )
            )
        for position, name in enumerate(node.inputs):
            want = (
                expected[position]
                if position < len(expected)
                else ValueType.ANY
            )
            if name not in defined:
                later = [
                    index for index in producers.get(name, [])
                    if index > node.index
                ]
                if later:
                    message = (
                        f"input {name!r} is not defined by any earlier "
                        f"step (first defined later, at step {later[0]}: "
                        f"forward reference or cycle)"
                    )
                    hint = "reorder the template so producers come first"
                else:
                    message = (
                        f"input {name!r} is not defined by any earlier step"
                    )
                    hint = "check the output names of previous steps"
                diagnostics.append(
                    Diagnostic(
                        "L009", Severity.ERROR, message,
                        step=node.index, operation=node.func, hint=hint,
                    )
                )
                continue
            consumed.add(name)
            have = defined[name]
            if not compatible(have, want):
                diagnostics.append(
                    Diagnostic(
                        "L010", Severity.ERROR,
                        f"input {name!r} has type {have.value}, "
                        f"expected {want.value}",
                        step=node.index, operation=node.func,
                        hint=f"insert an operation producing a "
                        f"{want.value} value, or rewire the input",
                    )
                )
        if node.output:
            if node.output in defined and node.output != SOURCE_NAME:
                previous = producers[node.output][0]
                diagnostics.append(
                    Diagnostic(
                        "L011", Severity.WARNING,
                        f"output {node.output!r} redefines the value "
                        f"from step {previous}",
                        step=node.index, operation=node.func,
                        hint="use a distinct name; shadowing defeats "
                        "the engine's cross-run result sharing",
                    )
                )
            defined[node.output] = node.output_type

    # dead operations: outputs nobody consumes
    keep = set(outputs or ())
    final_output = None
    for node in reversed(graph.nodes):
        if node.output:
            final_output = node.output
            break
    for node in graph.nodes:
        name = node.output
        if not name or name in consumed or name in keep or name == final_output:
            continue
        # only the *last* producer of a name can be the live definition
        if producers[name][-1] != node.index:
            continue
        diagnostics.append(
            Diagnostic(
                "L012", Severity.WARNING,
                f"output {name!r} is never consumed (dead operation)",
                step=node.index, operation=node.func,
                hint="remove the step, or request the value as a "
                "pipeline output",
            )
        )

    # requested outputs the template can never produce
    if outputs:
        produced = set(producers) | {SOURCE_NAME}
        for name in outputs:
            if name not in produced:
                diagnostics.append(
                    Diagnostic(
                        "L019", Severity.ERROR,
                        f"requested output {name!r} is never produced "
                        f"by any step",
                        hint=f"defined names: {sorted(set(producers))}",
                    )
                )


# ----------------------------------------------------------------------
# Ordering pass: model/train/predict structure
# ----------------------------------------------------------------------


def pass_ordering(graph: TemplateGraph, diagnostics: list[Diagnostic]) -> None:
    """Lint the train/predict/evaluate skeleton of the template."""
    def steps(name: str) -> list[int]:
        return [n.index for n in graph.nodes if n.func == name]

    model_sources = [
        node.index
        for node in graph.nodes
        if node.operation is not None
        and node.operation.output_type is ValueType.MODEL
        and node.func not in ("train", "tune")
    ]
    first_model = model_sources[0] if model_sources else None
    for index in steps("train"):
        if first_model is None or index < first_model:
            where = (
                "no model step exists"
                if first_model is None
                else f"the first model step is later, at step {first_model}"
            )
            diagnostics.append(
                Diagnostic(
                    "L013", Severity.ERROR,
                    f"'train' runs before any model is instantiated "
                    f"({where})",
                    step=index, operation="train",
                    hint='add a {"func": "model", "model_type": ...} step '
                    "before 'train'",
                )
            )
    if steps("train") and not steps("predict") and not steps("evaluate"):
        diagnostics.append(
            Diagnostic(
                "L014", Severity.WARNING,
                "the template trains a model but never predicts or "
                "evaluates with it",
                step=steps("train")[0], operation="train",
                hint="add 'predict' and 'evaluate' steps, or drop 'train' "
                "if only features are wanted",
            )
        )
