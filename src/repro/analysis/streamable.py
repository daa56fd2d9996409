"""Streaming safety: incrementality and state-bound inference (L041-L048).

The vectorization analyzer proves which operations have independent
rows; this module proves which are safe to *stream* -- to execute
chunk by chunk over a live capture with carried state, as the engine's
``run_stream`` mode and ``repro serve`` require.  It reads the row
findings and the carried-state growth/eviction sites of every body
from :mod:`repro.analysis.facts` and classifies every registered
operation's incrementality:

``stateless``
    chunk results concatenate to the batch result with no carried
    state (per-row featurizers, label extraction, row filters);
``prefix-mergeable``
    carried accumulator state folds across chunks -- processing the
    chunks in order with persistent state reproduces the single-pass
    result exactly (Kitsune's damped statistics in
    :class:`~repro.core.incstats.KitsuneStreamState`, prefix scans);
``window-bounded``
    only the last W seconds/rows matter, with W derivable from params
    like ``window``/``timeout`` (flow assembly, per-flow featurizers);
``batch-only``
    whole-trace dependence: global sorts, full-dataset normalization,
    whole-input sampling, train/test fits.

Alongside the verdict the pass infers a symbolic *state-size bound* --
``O(1)``, ``O(window)``, ``O(flows)`` or ``O(n)`` -- and emits the
stable diagnostics L041-L048.  The verdicts gate
``ExecutionEngine.run_stream`` exactly as purity verdicts gate
caching: nothing unproven streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import (
    OPAQUE,
    ROW_VALUE_KINDS,
    RowKind,
    body_facts,
    callees,
    memo,
    order_sensitive,
    prefixed,
    row_domain,
)

__all__ = [
    "STATELESS",
    "PREFIX_MERGEABLE",
    "WINDOW_BOUNDED",
    "BATCH_ONLY",
    "STREAMABLE_VERDICTS",
    "BOUND_ORDER",
    "classify_stream",
    "infer_state_bound",
    "StreamReport",
    "operation_stream_report",
    "pass_streamable",
]

# ---------------------------------------------------------------------------
# Verdicts and bounds
# ---------------------------------------------------------------------------

STATELESS = "stateless"
PREFIX_MERGEABLE = "prefix-mergeable"
WINDOW_BOUNDED = "window-bounded"
BATCH_ONLY = "batch-only"
# OPAQUE is shared with the vectorization analyzer ("opaque").

#: verdicts that permit the engine's chunked execution path
STREAMABLE_VERDICTS = frozenset(
    {STATELESS, PREFIX_MERGEABLE, WINDOW_BOUNDED}
)

#: symbolic state-size bounds, least to most memory (L048 compares ranks)
BOUND_ORDER = {"O(1)": 0, "O(window)": 1, "O(flows)": 2, "O(n)": 3}

#: params that make a window bound derivable at the operation level
_WINDOW_PARAMS = frozenset({"window", "timeout"})

def _marker_names(findings) -> set:
    """Callee names carried by call-marker findings.

    Strips the ``stream:`` body prefix and any dotted
    qualification, so markers match regardless of which body they came
    from.
    """
    call_kinds = {
        RowKind.SEQUENTIAL_CALL,
        RowKind.ORDER_SENSITIVE,
        RowKind.GROUPED_REDUCTION,
        RowKind.ROW_SELECTION,
    }
    return {
        finding.detail.split(":")[-1].rsplit(".", 1)[-1]
        for finding in findings
        if finding.kind in call_kinds
    }


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_stream(findings, input_kinds, output_kind) -> str:
    """The incrementality verdict for one operation.

    ``input_kinds``/``output_kind`` are ValueType value strings.  A
    whole-input reduction (rows in, non-row value out: train, tune,
    evaluate) is batch-only by construction; flow-consuming steps are
    window-bounded because a flow table is already the product of a
    timeout/window-bounded assembly.
    """
    kinds = {finding.kind for finding in findings}
    if RowKind.SOURCE_UNAVAILABLE in kinds:
        return OPAQUE
    if row_domain(input_kinds, output_kind) == "scalar":
        # no rows flow through (model factories/wrappers): there is no
        # per-chunk state to carry
        return STATELESS
    row_inputs = [kind for kind in input_kinds if kind in ROW_VALUE_KINDS]
    if row_inputs and output_kind not in ROW_VALUE_KINDS:
        # whole-input reduction: the single output fact needs all rows
        return BATCH_ONLY
    names = _marker_names(findings)
    if names & callees("whole-trace"):
        return BATCH_ONLY
    if "flows" in input_kinds or names & callees("window"):
        return WINDOW_BOUNDED
    if names & callees("prefix") or RowKind.LOOP_CARRIED in kinds:
        return PREFIX_MERGEABLE
    return STATELESS


def infer_state_bound(verdict: str, findings) -> str:
    """The symbolic carried-state bound implied by a verdict."""
    if verdict == STATELESS:
        return "O(1)"
    if verdict == WINDOW_BOUNDED:
        return "O(window)"
    if verdict == PREFIX_MERGEABLE:
        if _marker_names(findings) & callees("group-state"):
            return "O(flows)"
        if any(
            finding.kind is RowKind.LOOP_CARRIED
            and "accumulates across rows" in finding.detail
            for finding in findings
        ):
            # a list/dict accumulating one entry per row never folds
            return "O(n)"
        return "O(1)"
    return "O(n)"  # batch-only / opaque: the whole trace is the state


# ---------------------------------------------------------------------------
# Registry-facing reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamReport:
    """The streaming-safety verdict for one registered operation."""

    operation: str
    verdict: str
    state_bound: str
    declared_bound: str | None
    has_stream_fn: bool
    sort_key: str | None
    order_sensitive: bool
    window_derivable: bool
    findings: tuple = ()
    diagnostics: tuple = ()
    refusal: str | None = None

    @property
    def streamable(self) -> bool:
        """Whether the engine may stream this operation chunk by chunk."""
        return self.refusal is None

    def codes(self) -> set:
        return {diagnostic.code for diagnostic in self.diagnostics}

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "verdict": self.verdict,
            "state_bound": self.state_bound,
            "declared_bound": self.declared_bound,
            "stream_fn": self.has_stream_fn,
            "streamable": self.streamable,
            "sort_key": self.sort_key,
            "order_sensitive": self.order_sensitive,
            "window_derivable": self.window_derivable,
            "refusal": self.refusal,
            "findings": [finding.to_dict() for finding in self.findings],
            "diagnostics": [str(d) for d in self.diagnostics],
        }


def _report(operation) -> StreamReport:
    stream_fn = getattr(operation, "stream_fn", None)
    declared_bound = getattr(operation, "state_bound", None)
    input_kinds = tuple(t.value for t in operation.input_types)
    output_kind = operation.output_type.value
    findings = body_facts(operation.fn).rows
    stream_findings: tuple = ()
    growth: tuple = ()
    eviction: tuple = ()
    if stream_fn is not None:
        stream = body_facts(stream_fn)
        stream_findings = prefixed(stream.rows, "stream:")
        growth, eviction = stream.growth, stream.eviction
    verdict = classify_stream(findings, input_kinds, output_kind)
    bound = infer_state_bound(verdict, findings)
    sort_key = getattr(operation, "sort_key", None)
    ordered = order_sensitive(findings)
    params = set(getattr(operation, "required_params", ()) or ())
    params |= set(getattr(operation, "optional_params", {}) or {})
    window_derivable = bool(params & _WINDOW_PARAMS)

    # a stream body is the streaming declaration: the body-gated codes
    # check it
    has_body = stream_fn is not None
    diagnostics = []
    whole_trace = (
        _marker_names(findings) | _marker_names(stream_findings)
    ) & callees("whole-trace")
    if has_body and whole_trace:
        diagnostics.append(
            Diagnostic(
                "L042", Severity.ERROR,
                f"operation {operation.name!r} has a stream body but "
                f"performs a whole-trace reduction "
                f"({', '.join(sorted(whole_trace))})",
                operation=operation.name,
                hint="remove the global reduction or withdraw the stream "
                "body",
            )
        )
    if has_body and verdict not in STREAMABLE_VERDICTS:
        diagnostics.append(
            Diagnostic(
                "L045", Severity.ERROR,
                f"operation {operation.name!r} has a stream body but "
                f"the analyzer infers {verdict!r}: the body and the "
                "verdict have drifted",
                operation=operation.name,
                hint="fix the implementation or withdraw the stream body",
            )
        )
    tight_budget = declared_bound in (None, "O(1)")
    grows_unbounded = bool(growth) and not eviction
    carried_rows = any(
        finding.kind is RowKind.LOOP_CARRIED
        and "accumulates across rows" in finding.detail
        for finding in findings
    )
    if has_body and tight_budget and (grows_unbounded or carried_rows):
        where = (
            f"line {growth[0][0]}: {growth[0][1]}"
            if growth
            else "row accumulator in the scalar body"
        )
        diagnostics.append(
            Diagnostic(
                "L041", Severity.ERROR,
                f"operation {operation.name!r} carries an unbounded "
                f"container across chunks ({where}) with no declared "
                "state budget above O(1)",
                operation=operation.name,
                hint="declare state_bound= (O(window)/O(flows)) or add "
                "an eviction path",
            )
        )
    if (
        has_body
        and verdict == WINDOW_BOUNDED
        and grows_unbounded
        and not tight_budget
    ):
        line, detail = growth[0]
        diagnostics.append(
            Diagnostic(
                "L047", Severity.ERROR,
                f"operation {operation.name!r} buffers input rows per "
                f"flow (line {line}: {detail}) but never evicts: a "
                "window-bounded op must expire idle state",
                operation=operation.name,
                hint="evict on FIN/RST or an inactivity timeout (see "
                "KitsuneStreamState.evict_idle)",
            )
        )
    if (
        declared_bound is not None
        and declared_bound in BOUND_ORDER
        and BOUND_ORDER[bound] > BOUND_ORDER[declared_bound]
    ):
        diagnostics.append(
            Diagnostic(
                "L048", Severity.ERROR,
                f"operation {operation.name!r} declares "
                f"state_bound={declared_bound!r} but the analyzer "
                f"infers {bound!r}: the state budget is exceeded",
                operation=operation.name,
                hint="raise the declared budget or shrink the carried "
                "state",
            )
        )
    if has_body and verdict == WINDOW_BOUNDED and not window_derivable:
        diagnostics.append(
            Diagnostic(
                "L043", Severity.WARNING,
                f"operation {operation.name!r} is window-bounded but "
                "no window/timeout parameter makes W derivable",
                operation=operation.name,
                hint="thread a window= or timeout= param through the "
                "registration",
            )
        )
    if verdict in STREAMABLE_VERDICTS and ordered and sort_key is None:
        diagnostics.append(
            Diagnostic(
                "L044", Severity.WARNING,
                f"operation {operation.name!r} is chunk-boundary "
                "order sensitive but declares no sort key; chunked "
                "and batch results may silently diverge",
                operation=operation.name,
                hint="declare sort_key= (usually 'ts') on the "
                "registration",
            )
        )

    refusal = None
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if verdict not in STREAMABLE_VERDICTS:
        refusal = f"verdict:{verdict}"
    elif errors:
        refusal = f"diagnostics:{errors[0].code}"
    elif verdict != STATELESS and not has_body:
        refusal = "no-stream-implementation"

    return StreamReport(
        operation=operation.name,
        verdict=verdict,
        state_bound=bound,
        declared_bound=declared_bound,
        has_stream_fn=has_body,
        sort_key=sort_key,
        order_sensitive=ordered,
        window_derivable=window_derivable,
        findings=tuple(findings) + tuple(stream_findings),
        diagnostics=tuple(diagnostics),
        refusal=refusal,
    )


def operation_stream_report(operation) -> StreamReport:
    """The cached streaming-safety report for one operation."""
    return memo(
        (
            "streamable", operation.name, operation.fn,
            getattr(operation, "stream_fn", None),
            getattr(operation, "state_bound", None),
        ),
        lambda: _report(operation),
    )


# ---------------------------------------------------------------------------
# Template-level pass (L046, forwarded op warnings)
# ---------------------------------------------------------------------------


def _learning_tail(operation) -> bool:
    """Whether a step belongs to the train/score tail of a template.

    Streaming scores with a *pre-fitted* model, so model-touching steps
    (model factories, train/tune, predict, evaluate) never pin a
    feature pipeline: they are excluded from L046.
    """
    kinds = {t.value for t in operation.input_types}
    kinds.add(operation.output_type.value)
    return bool(kinds & {"model", "metrics"})


def pass_streamable(graph, diagnostics) -> None:
    """Emit L043/L044/L046 over one template (warnings only).

    Execution stays gated per step by :func:`operation_stream_report`;
    this pass only surfaces template-level structure: a batch-only step
    sitting in the middle of an otherwise streamable feature pipeline
    pins the whole template to batch mode (L046).
    """
    reports: dict = {}
    for node in graph.nodes:
        if node.operation is None:
            continue
        report = reports[node.index] = operation_stream_report(node.operation)
        for diagnostic in report.diagnostics:
            if diagnostic.code in ("L043", "L044"):
                diagnostics.append(
                    Diagnostic(
                        diagnostic.code,
                        Severity.WARNING,
                        diagnostic.message,
                        step=node.index,
                        operation=node.func,
                        hint=diagnostic.hint,
                    )
                )

    streamable_elsewhere = any(
        report.verdict in STREAMABLE_VERDICTS
        and not _learning_tail(node.operation)
        for node in graph.nodes
        if node.operation is not None
        for report in (reports.get(node.index),)
        if report is not None
    )
    if not streamable_elsewhere:
        return
    for node in graph.nodes:
        if node.operation is None or _learning_tail(node.operation):
            continue
        report = reports.get(node.index)
        if report is None or report.verdict != BATCH_ONLY:
            continue
        diagnostics.append(
            Diagnostic(
                "L046", Severity.WARNING,
                f"step {node.index} ({node.func}) is batch-only and "
                "pins this otherwise streamable template to batch "
                "execution",
                step=node.index,
                operation=node.func,
                hint="move the whole-trace step out of the streaming "
                "path (e.g. downsample/normalize offline) to unlock "
                "run_stream",
            )
        )
