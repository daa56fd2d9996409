"""Static template analyzer: compile-time checks for Lumen pipelines.

Given a template (list of step dicts, as in a JSON template file) the
analyzer builds an explicit dataflow graph and runs a series of passes
over it -- *without executing anything*:

* parameter schemas and per-operation value checks,
* type propagation along the graph (PACKETS/FLOWS/FEATURES/...),
* graph lints (undefined inputs, dead operations, duplicate outputs,
  train-before-model ordering, missing terminal steps),
* implementation-level effect analysis of the operations the template
  uses (purity, in-place mutation, hidden state, unseeded RNG -- see
  :mod:`repro.analysis.facts` / :mod:`repro.analysis.safety`),
* the paper's faithfulness rule, when a dataset id is supplied.

Every finding is a :class:`~repro.analysis.diagnostics.Diagnostic`
with a stable ``L0xx`` code; :class:`AnalysisResult.raise_if_errors`
turns errors into :class:`~repro.core.errors.TemplateDiagnosticError`.
The analyzer is the only template parser: :meth:`Pipeline.from_template`
builds its calls from the graph :func:`checked_graph` returns, and the
execution engine analyzes hand-built pipelines too, so every entry
point fails fast on a bad template.
"""

from __future__ import annotations

from typing import Collection

from repro.analysis.diagnostics import (
    CODES,
    AnalysisResult,
    Diagnostic,
    Severity,
)
from repro.analysis.audit import audit_payload, strict_problems
from repro.analysis.equivalence import (
    CanonicalGraph,
    CanonicalStep,
    canonicalize,
)
from repro.analysis.concurrency import (
    ConcurrencyReport,
    module_concurrency_report,
    operation_concurrency_report,
)
from repro.analysis.faithfulness import pass_faithfulness
from repro.analysis.graph import (
    StepNode,
    TemplateGraph,
    build_graph,
    graph_from_pipeline,
)
from repro.analysis.passes import pass_dataflow, pass_ordering, pass_parameters
from repro.analysis.planner import (
    ExecutionPlan,
    PlanStage,
    build_matrix_plan,
    build_plan,
)
from repro.analysis.safety import (
    EffectReport,
    operation_report,
    pass_effects,
)
from repro.analysis.sources import LintTarget, collect_targets
from repro.analysis.streamable import (
    StreamReport,
    operation_stream_report,
    pass_streamable,
)
from repro.analysis.vectorize import (
    VectorReport,
    operation_vector_report,
    pass_vectorize,
    verdict_fingerprints,
)
from repro.core.pipeline import Pipeline

__all__ = [
    "CODES",
    "AnalysisResult",
    "CanonicalGraph",
    "CanonicalStep",
    "ConcurrencyReport",
    "Diagnostic",
    "EffectReport",
    "ExecutionPlan",
    "LintTarget",
    "PlanStage",
    "Severity",
    "StepNode",
    "StreamReport",
    "TemplateGraph",
    "VectorReport",
    "analyze_pipeline",
    "analyze_template",
    "audit_payload",
    "build_graph",
    "build_matrix_plan",
    "build_plan",
    "canonicalize",
    "checked_graph",
    "collect_targets",
    "graph_from_pipeline",
    "module_concurrency_report",
    "operation_concurrency_report",
    "operation_report",
    "operation_stream_report",
    "operation_vector_report",
    "pass_effects",
    "pass_streamable",
    "pass_vectorize",
    "strict_problems",
    "verdict_fingerprints",
]


def _run_passes(
    graph: TemplateGraph,
    diagnostics: list[Diagnostic],
    *,
    dataset_id: str | None,
    outputs: Collection[str] | None,
) -> AnalysisResult:
    pass_parameters(graph, diagnostics)
    pass_dataflow(graph, diagnostics, outputs)
    pass_ordering(graph, diagnostics)
    pass_effects(graph, diagnostics)
    pass_vectorize(graph, diagnostics)
    pass_streamable(graph, diagnostics)
    if dataset_id is not None:
        pass_faithfulness(graph, diagnostics, dataset_id)
    return AnalysisResult(diagnostics)


def analyze_template(
    template: object,
    *,
    dataset_id: str | None = None,
    outputs: Collection[str] | None = None,
) -> AnalysisResult:
    """Statically analyze a raw template (list of step dicts).

    Nothing is executed: no traces are generated, no models built.
    Pass ``dataset_id`` to additionally run the faithfulness lint and
    ``outputs`` to verify the requested output names are producible.
    """
    graph, diagnostics = build_graph(template)
    return _run_passes(
        graph, diagnostics, dataset_id=dataset_id, outputs=outputs
    )


def checked_graph(template: object) -> TemplateGraph:
    """The analyzed graph of a template, if it has no errors.

    Runs the passes :func:`analyze_template` runs and raises
    :class:`~repro.core.errors.TemplateDiagnosticError` on any error
    diagnostic.  Every node of the returned graph then has an
    operation, normalised inputs, a name-string output and
    schema-validated params: :meth:`Pipeline.from_template` builds its
    calls from them.
    """
    graph, diagnostics = build_graph(template)
    _run_passes(
        graph, diagnostics, dataset_id=None, outputs=None
    ).raise_if_errors()
    return graph


def analyze_pipeline(
    pipeline: Pipeline,
    *,
    dataset_id: str | None = None,
    outputs: Collection[str] | None = None,
) -> AnalysisResult:
    """Statically analyze an already-parsed :class:`Pipeline`.

    Used by the execution engine so hand-constructed pipelines get the
    same fail-fast checks as templates loaded from JSON.
    """
    graph = graph_from_pipeline(pipeline)
    return _run_passes(
        graph, [], dataset_id=dataset_id, outputs=outputs
    )
