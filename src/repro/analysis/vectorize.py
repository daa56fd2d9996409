"""Vectorization safety: which operations may run batched (L034-L040).

The effect analyzer (:mod:`repro.analysis.safety`) proves which
operations are safe to *cache*; this module proves
which are safe to *batch*.  It reads the row findings of every body
from :mod:`repro.analysis.facts` and classifies each operation's
per-row behaviour:

``elementwise``
    row *i* of the output depends only on row *i* of the inputs
    (pure columnar transforms: one-hots, bit encodings, casts);
``row-parallel``
    output rows are independent and may be computed in any order
    (per-flow segmented reductions, row subsets);
``windowed-sequential``
    the implementation carries cross-row state (flow assembly,
    incremental statistics, whole-matrix fits, sorts);
``opaque``
    no source is available to analyze.

Registry-facing reports attach the verdicts to operations (and, via
the canonical normal form, to semantic fingerprints), emit the stable
diagnostics L034-L040, and gate the engine's batched execution path
exactly as purity verdicts gate caching.  The template pass propagates
symbolic shapes and dtypes (L035-L039).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import (
    BATCHABLE_VERDICTS,
    ELEMENTWISE,
    OPAQUE,
    ROW_PARALLEL,
    SEQUENTIAL,
    RowKind,
    body_facts,
    classify,
    memo,
    operation_rows,
    order_sensitive,
    row_domain,
)
from repro.analysis.safety import operation_report

__all__ = [
    "ELEMENTWISE",
    "ROW_PARALLEL",
    "SEQUENTIAL",
    "OPAQUE",
    "BATCHABLE_VERDICTS",
    "RowKind",
    "classify",
    "row_domain",
    "VectorReport",
    "operation_vector_report",
    "audit_vectorization",
    "verdict_fingerprints",
    "pass_vectorize",
    "ShapeFact",
]

# Hard-sequential markers for L039: a producer with one of these (or a
# Python row loop) cannot join a batched/shared stage at all.
_INCREMENTAL_NAMES = frozenset(
    {
        "kitsune_packet_features",
        "damped_group_stats",
        "damped_interarrival_stats",
        "fit",
        "fit_transform",
        "partial_fit",
    }
)


def hard_sequential(findings) -> bool:
    """Whether findings mark an op no batching strategy can absorb."""
    kinds = {finding.kind for finding in findings}
    if RowKind.ROW_LOOP in kinds or RowKind.LOOP_CARRIED in kinds:
        return True
    return any(
        finding.kind is RowKind.SEQUENTIAL_CALL
        and finding.detail in _INCREMENTAL_NAMES
        for finding in findings
    )


# ---------------------------------------------------------------------------
# Registry-facing reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorReport:
    """The vectorization-safety verdict for one registered operation."""

    operation: str
    verdict: str
    domain: str
    batch_declared: bool
    sort_key: str | None
    order_sensitive: bool
    findings: tuple = ()
    diagnostics: tuple = ()
    refusal: str | None = None

    @property
    def batchable(self) -> bool:
        """Whether the engine may take the declared batched path."""
        return self.batch_declared and self.refusal is None

    def codes(self) -> set:
        return {diagnostic.code for diagnostic in self.diagnostics}

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "verdict": self.verdict,
            "domain": self.domain,
            "batch": self.batch_declared,
            "batchable": self.batchable,
            "sort_key": self.sort_key,
            "order_sensitive": self.order_sensitive,
            "refusal": self.refusal,
            "findings": [finding.to_dict() for finding in self.findings],
            "diagnostics": [str(d) for d in self.diagnostics],
        }


def _report(operation) -> VectorReport:
    input_kinds = tuple(t.value for t in operation.input_types)
    output_kind = operation.output_type.value
    findings = operation_rows(operation)
    verdict = classify(findings, input_kinds, output_kind)
    domain = row_domain(input_kinds, output_kind)
    sort_key = getattr(operation, "sort_key", None)
    ordered = order_sensitive(findings)
    kinds = {finding.kind for finding in findings}
    batch_declared = getattr(operation, "batch", None) is not None

    diagnostics = []
    if batch_declared and RowKind.LOOP_CARRIED in kinds:
        carried = next(
            f for f in findings if f.kind is RowKind.LOOP_CARRIED
        )
        diagnostics.append(
            Diagnostic(
                "L034", Severity.ERROR,
                f"operation {operation.name!r} declares a batch "
                f"implementation but carries state across rows "
                f"({carried.detail})",
                operation=operation.name,
                hint="remove the loop-carried accumulator or withdraw "
                "the batch= declaration",
            )
        )
    if RowKind.OBJECT_DTYPE in kinds:
        fallback = next(
            f for f in findings if f.kind is RowKind.OBJECT_DTYPE
        )
        diagnostics.append(
            Diagnostic(
                "L036", Severity.WARNING,
                f"operation {operation.name!r} falls back to object "
                f"arrays or Python-level ufuncs ({fallback.detail}); "
                "the hot path cannot stay columnar",
                operation=operation.name,
                hint="keep numeric dtypes end to end",
            )
        )
    if (
        RowKind.ROW_LOOP in kinds
        and verdict in BATCHABLE_VERDICTS
        and output_kind == "features"
        and not batch_declared
    ):
        loop = next(f for f in findings if f.kind is RowKind.ROW_LOOP)
        diagnostics.append(
            Diagnostic(
                "L037", Severity.WARNING,
                f"featurizer {operation.name!r} is provably {verdict} "
                f"but iterates rows in Python ({loop.detail}, "
                f"line {loop.line})",
                operation=operation.name,
                hint="declare a batch= numpy implementation so the "
                "engine can vectorize it",
            )
        )
    if ordered and sort_key is None:
        diagnostics.append(
            Diagnostic(
                "L038", Severity.WARNING,
                f"operation {operation.name!r} is row-order sensitive "
                "but declares no sort key; results silently depend on "
                "input ordering",
                operation=operation.name,
                hint="declare sort_key= (usually 'ts') on the "
                "registration",
            )
        )
    refusal = None
    if batch_declared:
        if verdict not in BATCHABLE_VERDICTS:
            refusal = f"verdict:{verdict}"
        elif RowKind.OBJECT_DTYPE in kinds:
            refusal = "object-dtype-fallback"
    else:
        refusal = "no-batch-implementation"
    if batch_declared and refusal is not None:
        diagnostics.append(
            Diagnostic(
                "L040", Severity.ERROR,
                f"operation {operation.name!r} declares batch= but the "
                f"analyzer refuses it ({refusal}): declaration and "
                "verdict have drifted",
                operation=operation.name,
                hint="fix the implementation or withdraw batch=",
            )
        )

    return VectorReport(
        operation=operation.name,
        verdict=verdict,
        domain=domain,
        batch_declared=batch_declared,
        sort_key=sort_key,
        order_sensitive=ordered,
        findings=tuple(findings),
        diagnostics=tuple(diagnostics),
        refusal=refusal,
    )


def operation_vector_report(operation) -> VectorReport:
    """The cached vectorization-safety report for one operation."""
    batch = getattr(operation, "batch", None)
    return memo(
        ("vectorize", operation.name, operation.fn, batch),
        lambda: _report(operation),
    )


def audit_vectorization(operations=None) -> dict:
    """Deterministic vectorization audit of the operation registry."""
    if operations is None:
        from repro.core.operations import OPERATIONS

        operations = OPERATIONS
    reports = [
        operation_vector_report(operations[name])
        for name in sorted(operations)
    ]
    summary = {
        "total": len(reports),
        "elementwise": sum(1 for r in reports if r.verdict == ELEMENTWISE),
        "row_parallel": sum(1 for r in reports if r.verdict == ROW_PARALLEL),
        "sequential": sum(1 for r in reports if r.verdict == SEQUENTIAL),
        "opaque": sum(1 for r in reports if r.verdict == OPAQUE),
        "batchable": sum(1 for r in reports if r.batchable),
        "errors": sum(
            1
            for r in reports
            for d in r.diagnostics
            if d.severity.value == "error"
        ),
    }
    return {
        "operations": [report.to_dict() for report in reports],
        "summary": summary,
    }


def verdict_fingerprints(template, *, outputs=None) -> dict:
    """Attach verdicts to PR 5 semantic fingerprints, not spellings.

    Canonicalizes the template and maps each canonical step's
    fingerprint to ``{"func", "verdict"}`` -- two differently spelled
    steps that intern to the same stage get (and must get) the same
    verdict, so a planner can decide batchability per shared stage.
    """
    from repro.analysis.equivalence import canonicalize
    from repro.core.operations import OPERATIONS

    graph = canonicalize(template, outputs=outputs)
    verdicts: dict = {}
    for step in graph.steps:
        operation = OPERATIONS.get(step.func)
        verdict = (
            operation_vector_report(operation).verdict
            if operation is not None
            else OPAQUE
        )
        verdicts[step.fingerprint] = {"func": step.func, "verdict": verdict}
    return verdicts


# ---------------------------------------------------------------------------
# Template-level shape/dtype propagation (L035/L036/L037/L038/L039)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeFact:
    """Symbolic shape/dtype facts for one pipeline value.

    ``rows`` is a *provenance symbol*: two values share it only when
    the analyzer can prove they are row-aligned.  ``source_rows``
    carries the packet provenance through flow tables so labels
    propagated back to packets re-align with packet features.
    """

    kind: str  # packets | flows | matrix | vector | model | metrics | unknown
    unit: str | None = None  # packet | flow
    rows: int | None = None  # provenance symbol
    cols: int | None = None
    dtype: str | None = None
    trained_cols: int | None = None
    source_rows: int | None = None


_NPRINT_LAYER_BITS = {"ipv4": 97, "tcp": 57, "udp": 49, "icmp": 17}


def _nprint_cols(params: dict) -> int | None:
    layers = params.get("layers")
    if not isinstance(layers, (list, tuple)):
        return None
    cols = 0
    for layer in layers:
        if layer == "payload":
            try:
                cols += 16 + int(params.get("payload_bytes", 8)) * 8
            except (TypeError, ValueError):
                return None
        elif layer in _NPRINT_LAYER_BITS:
            cols += _NPRINT_LAYER_BITS[layer]
        else:
            return None
    return cols


def _spec_len(value) -> int | None:
    if isinstance(value, (list, tuple)):
        return len(value)
    return None


def _matrix_from(fact, cols) -> ShapeFact:
    if fact is None:
        return ShapeFact("matrix", cols=cols, dtype="float64")
    return ShapeFact(
        "matrix",
        unit=fact.unit,
        rows=fact.rows,
        cols=cols,
        dtype="float64",
        source_rows=fact.source_rows,
    )


def _vector_from(fact) -> ShapeFact:
    if fact is None:
        return ShapeFact("vector", dtype="int64")
    return ShapeFact(
        "vector",
        unit=fact.unit,
        rows=fact.rows,
        dtype="int64",
        source_rows=fact.source_rows,
    )


def pass_vectorize(graph, diagnostics) -> None:
    """Propagate shape facts and emit L035-L039 over one template.

    Runs after parameter/dataflow passes: ``node.params`` are validated
    with defaults filled wherever the step itself is well-formed.  All
    diagnostics here are warnings -- a shape mismatch the analyzer can
    see is almost always a real bug, but execution (which re-checks at
    runtime) stays the ground truth.
    """
    from repro.core.pipeline import SOURCE_NAME

    symbols = iter(range(1_000_000))
    facts: dict = {
        SOURCE_NAME: ShapeFact("packets", unit="packet", rows=next(symbols))
    }
    producer_of: dict = {}
    reports: dict = {}

    def fresh() -> int:
        return next(symbols)

    def warn(code, message, node, hint=None):
        diagnostics.append(
            Diagnostic(
                code, Severity.WARNING, message,
                step=node.index, operation=node.func, hint=hint,
            )
        )

    def mismatch(node, left, right, what):
        if (
            left is not None
            and right is not None
            and left.rows is not None
            and right.rows is not None
            and left.rows != right.rows
        ):
            warn(
                "L035",
                f"{what}: the two inputs of step {node.index} "
                f"({node.func}) come from different row provenances "
                "and may disagree in length",
                node,
                hint="derive both from the same filtered/grouped value",
            )

    for node in graph.nodes:
        if node.operation is None:
            continue
        report = reports[node.index] = operation_vector_report(node.operation)
        for diagnostic in report.diagnostics:
            if diagnostic.code in ("L036", "L037", "L038"):
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
        in_facts = [facts.get(name) for name in node.inputs]
        try:
            out = _apply_shape_rule(
                node, in_facts, fresh, warn, mismatch
            )
        except Exception:
            out = ShapeFact("unknown")
        facts[node.output] = out
        for name in node.inputs:
            producer_of.setdefault(node.output, node)
        producer_of[node.output] = node

    # L039: a proven-batchable, cache-shareable stage fed by a
    # hard-sequential same-unit producer cannot actually run batched --
    # the prefix pins the whole chain to scalar order.
    for node in graph.nodes:
        report = reports.get(node.index)
        if report is None or not report.batchable:
            continue
        if not operation_report(node.operation).cacheable:
            continue
        for name in node.inputs:
            producer = producer_of.get(name)
            if producer is None:
                continue
            prod_report = reports.get(producer.index)
            if prod_report is None:
                continue
            if prod_report.verdict not in (SEQUENTIAL, OPAQUE):
                continue
            if not hard_sequential(prod_report.findings):
                continue
            prod_fact = facts.get(producer.output)
            in_fact = facts.get(
                producer.inputs[0] if producer.inputs else ""
            )
            if (
                prod_fact is not None
                and in_fact is not None
                and prod_fact.unit is not None
                and in_fact.unit is not None
                and prod_fact.unit != in_fact.unit
            ):
                continue  # a granularity change is a legitimate boundary
            warn(
                "L039",
                f"step {producer.index} ({producer.func}) is "
                f"{prod_report.verdict} and blocks the batchable, "
                f"shareable stage {node.index} ({node.func}) from "
                "running vectorized",
                producer,
                hint="move the sequential step after the batchable "
                "prefix, or accept scalar execution",
            )


def _apply_shape_rule(node, in_facts, fresh, warn, mismatch) -> ShapeFact:
    func = node.func
    params = node.params if isinstance(node.params, dict) else {}
    first = in_facts[0] if in_facts else None

    if func in ("FieldExtract",):
        return first or ShapeFact("packets", unit="packet", rows=fresh())
    if func in ("FilterPackets", "Downsample", "SortByTime"):
        base = first or ShapeFact("packets", unit="packet")
        return ShapeFact("packets", unit="packet", rows=fresh(),
                         source_rows=None)
    if func == "Groupby":
        src = first.rows if first is not None else None
        return ShapeFact("flows", unit="flow", rows=fresh(),
                         source_rows=src)
    if func == "TimeSlice":
        src = first.source_rows if first is not None else None
        return ShapeFact("flows", unit="flow", rows=fresh(),
                         source_rows=src)
    if func == "PacketFields":
        return _matrix_from(first, _spec_len(params.get("fields")))
    if func == "ProtocolOneHot":
        return _matrix_from(first, 4)
    if func == "WlanFeatures":
        return _matrix_from(first, 22)
    if func == "NprintEncode":
        return _matrix_from(first, _nprint_cols(params))
    if func == "KitsuneFeatures":
        lambdas = _spec_len(params.get("lambdas"))
        return _matrix_from(
            first, 12 * lambdas if lambdas is not None else None
        )
    if func == "ApplyAggregates":
        return _matrix_from(first, _spec_len(params.get("list")))
    if func == "FirstNPackets":
        try:
            n = int(params.get("n", 8))
        except (TypeError, ValueError):
            return _matrix_from(first, None)
        blocks = 1
        blocks += 1 if params.get("include_iat", True) else 0
        blocks += 1 if params.get("include_direction", True) else 0
        return _matrix_from(first, n * blocks)
    if func == "ZeekConnLog":
        return _matrix_from(first, 12)
    if func == "FlowDiscriminators":
        return _matrix_from(first, 38)
    if func == "PairVolumes":
        return _matrix_from(first, 9)
    if func == "ConcatFeatures":
        left = in_facts[0] if len(in_facts) > 0 else None
        right = in_facts[1] if len(in_facts) > 1 else None
        mismatch(node, left, right, "ConcatFeatures row alignment")
        cols = None
        if (
            left is not None
            and right is not None
            and left.cols is not None
            and right.cols is not None
        ):
            cols = left.cols + right.cols
        base = left or right
        return _matrix_from(base, cols)
    if func == "SelectColumns":
        indices = params.get("indices")
        cols = _spec_len(indices)
        if (
            first is not None
            and first.cols is not None
            and isinstance(indices, (list, tuple))
            and all(isinstance(i, int) for i in indices)
        ):
            bad = [i for i in indices if not 0 <= i < first.cols]
            if bad:
                warn(
                    "L035",
                    f"SelectColumns indices {bad} are provably out of "
                    f"range for the {first.cols}-column input matrix",
                    node,
                    hint="the step will raise at runtime",
                )
        return _matrix_from(first, cols)
    if func == "Normalize":
        return _matrix_from(first, first.cols if first is not None else None)
    if func in ("Labels", "AttackIds", "DeviceLabels"):
        if first is not None and first.kind in ("packets", "flows"):
            return _vector_from(first)
        return ShapeFact("vector", dtype="int64")
    if func == "PropagateLabels":
        if first is not None and first.kind == "flows":
            return ShapeFact(
                "vector", unit="packet", rows=first.source_rows,
                dtype="int64",
            )
        return ShapeFact("vector", dtype="int64")
    if func in ("model", "WithScaler", "WithDecorrelation",
                "WithVarianceFilter", "WithPCA"):
        return ShapeFact("model")
    if func in ("train", "tune"):
        features = in_facts[1] if len(in_facts) > 1 else None
        labels = in_facts[2] if len(in_facts) > 2 else None
        mismatch(node, features, labels, "train/label alignment")
        return ShapeFact(
            "model",
            trained_cols=features.cols if features is not None else None,
        )
    if func == "predict":
        model = in_facts[0] if in_facts else None
        features = in_facts[1] if len(in_facts) > 1 else None
        if (
            model is not None
            and features is not None
            and model.trained_cols is not None
            and features.cols is not None
            and model.trained_cols != features.cols
        ):
            warn(
                "L035",
                f"model was trained on {model.trained_cols} feature "
                f"columns but predicts on {features.cols}",
                node,
                hint="train and predict must share one feature template",
            )
        if features is not None:
            return ShapeFact(
                "vector", unit=features.unit, rows=features.rows,
                dtype="int64", source_rows=features.source_rows,
            )
        return ShapeFact("vector", dtype="int64")
    if func == "evaluate":
        predictions = in_facts[0] if in_facts else None
        labels = in_facts[1] if len(in_facts) > 1 else None
        mismatch(node, predictions, labels, "evaluation alignment")
        return ShapeFact("metrics")
    return ShapeFact("unknown")
