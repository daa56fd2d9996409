"""Dataflow-graph construction for the static template analyzer.

This is the repo's only template parser, and it is *tolerant*: it
records every parse-level defect as a
:class:`~repro.analysis.diagnostics.Diagnostic` and keeps going, so one
analyzer run reports everything wrong with a template.  The result is a
list of :class:`StepNode` -- the analyzer's IR -- plus the explicit
producer/consumer edges the passes walk;
:meth:`repro.core.pipeline.Pipeline.from_template` builds its calls
from the nodes of a graph with no error diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.operations import OPERATIONS, Operation
from repro.core.pipeline import SOURCE_NAME, Pipeline
from repro.core.types import ValueType


@dataclass
class StepNode:
    """One template step in the analyzer's intermediate representation."""

    index: int
    func: str | None
    operation: Operation | None
    inputs: tuple[str, ...]
    output: str | None
    raw_params: dict
    #: filled in by the parameter pass (raw params until then)
    params: dict = field(default_factory=dict)

    @property
    def output_type(self) -> ValueType:
        if self.operation is None:
            return ValueType.ANY
        return self.operation.output_type


@dataclass
class TemplateGraph:
    """The dataflow graph: steps plus name -> producer/consumer edges."""

    nodes: list[StepNode]

    def producers(self) -> dict[str, list[int]]:
        """value name -> indices of the steps that define it, in order."""
        out: dict[str, list[int]] = {}
        for node in self.nodes:
            if node.output:
                out.setdefault(node.output, []).append(node.index)
        return out

    def consumers(self) -> dict[str, list[int]]:
        """value name -> indices of the steps that consume it, in order."""
        out: dict[str, list[int]] = {}
        for node in self.nodes:
            for name in node.inputs:
                out.setdefault(name, []).append(node.index)
        return out


def _normalise_inputs(
    raw: object,
    operation: Operation | None,
    index: int,
    func: str | None,
    diagnostics: list[Diagnostic],
) -> tuple[str, ...]:
    """A step's input names; ``None`` reads the implicit trace when the
    operation takes packets (or anything)."""
    if raw is None:
        if (
            operation is not None
            and operation.input_types
            and operation.input_types[0]
            in (ValueType.PACKETS, ValueType.ANY)
        ):
            return (SOURCE_NAME,)
        return ()
    if isinstance(raw, str):
        return (raw,)
    if isinstance(raw, (list, tuple)):
        names = [item for item in raw if isinstance(item, str)]
        if len(names) != len(raw):
            diagnostics.append(
                Diagnostic(
                    "L006", Severity.ERROR,
                    "input names must be strings",
                    step=index, operation=func,
                )
            )
        return tuple(names)
    diagnostics.append(
        Diagnostic(
            "L006", Severity.ERROR,
            f"bad input specification: {raw!r}",
            step=index, operation=func,
            hint="use null, a name string, or a list of name strings",
        )
    )
    return ()


def build_graph(template: object) -> tuple[TemplateGraph, list[Diagnostic]]:
    """Parse a raw template into the analyzer IR, collecting defects."""
    diagnostics: list[Diagnostic] = []
    nodes: list[StepNode] = []
    if not isinstance(template, (list, tuple)):
        diagnostics.append(
            Diagnostic(
                "L001", Severity.ERROR,
                f"a template must be a list of steps, got "
                f"{type(template).__name__}",
            )
        )
        return TemplateGraph(nodes), diagnostics
    if not template:
        diagnostics.append(
            Diagnostic("L001", Severity.ERROR, "empty template")
        )
        return TemplateGraph(nodes), diagnostics

    for index, step in enumerate(template):
        if not isinstance(step, dict):
            diagnostics.append(
                Diagnostic(
                    "L002", Severity.ERROR,
                    f"step {index} is not a mapping",
                    step=index,
                )
            )
            nodes.append(StepNode(index, None, None, (), None, {}))
            continue
        step = dict(step)
        func = step.pop("func", None)
        operation = None
        if func is None or func == "":
            diagnostics.append(
                Diagnostic(
                    "L003", Severity.ERROR,
                    f"step {index} has no 'func'",
                    step=index,
                )
            )
            func = None
        elif not isinstance(func, str):
            diagnostics.append(
                Diagnostic(
                    "L004", Severity.ERROR,
                    f"operation name must be a string, got {func!r}",
                    step=index,
                    hint="check docs/OPERATIONS.md for the catalog",
                )
            )
            func = None
        else:
            operation = OPERATIONS.get(func)
            if operation is None:
                known = ", ".join(sorted(OPERATIONS))
                diagnostics.append(
                    Diagnostic(
                        "L004", Severity.ERROR,
                        f"unknown operation {func!r} "
                        f"(known operations: {known})",
                        step=index, operation=str(func),
                        hint="check docs/OPERATIONS.md for the catalog",
                    )
                )
        raw_input = step.pop("input", None)
        output = step.pop("output", None)
        if output is None or output == "":
            diagnostics.append(
                Diagnostic(
                    "L005", Severity.ERROR,
                    f"step {index} ({func}) has no 'output'",
                    step=index, operation=func,
                )
            )
            output = None
        elif not isinstance(output, str):
            diagnostics.append(
                Diagnostic(
                    "L005", Severity.ERROR,
                    f"output must be a name string, got {output!r}",
                    step=index, operation=func,
                )
            )
            output = None
        # "param" is the paper's alias for the first required parameter
        if "param" in step and operation is not None and operation.required_params:
            step[operation.required_params[0]] = step.pop("param")
        inputs = _normalise_inputs(raw_input, operation, index, func, diagnostics)
        nodes.append(
            StepNode(
                index=index,
                func=func,
                operation=operation,
                inputs=inputs,
                output=output,
                raw_params=step,
                params=dict(step),
            )
        )
    return TemplateGraph(nodes), diagnostics


def graph_from_pipeline(pipeline: Pipeline) -> TemplateGraph:
    """Build the analyzer IR from an already-parsed pipeline.

    Used by the execution engine so even hand-constructed
    :class:`~repro.core.pipeline.Pipeline` objects are analyzed before
    anything runs.
    """
    nodes = [
        StepNode(
            index=index,
            func=call.name,
            operation=call.operation,
            inputs=call.inputs,
            output=call.output,
            raw_params=dict(call.params),
            params=dict(call.params),
        )
        for index, call in enumerate(pipeline.calls)
    ]
    return TemplateGraph(nodes)
