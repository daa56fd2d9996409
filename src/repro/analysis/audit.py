"""The ``repro audit`` payload, built in one pass over the registry.

:func:`audit_payload` asks each analyzer for its cached per-operation
report (effects, vectorize, streamable, races), summarises each
section with one counting helper, adds the core-module race reports
and, on request, the catalog verdicts.  :func:`strict_problems` turns
a payload into the ``--strict`` failure reasons.  The JSON form of the
payload is byte-deterministic: CI diffs it.
"""

from __future__ import annotations

from repro.analysis.concurrency import (
    CORE_MODULES,
    LOCK_GUARDED,
    RACY,
    READ_ONLY_SHARED,
    SESSION_CONFINED,
    module_concurrency_report,
    operation_concurrency_report,
)
from repro.analysis.diagnostics import Severity
from repro.analysis.facts import (
    ELEMENTWISE,
    IO,
    OPAQUE,
    PURE,
    ROW_PARALLEL,
    SEEDED,
    SEQUENTIAL,
    STATEFUL,
)
from repro.analysis.safety import operation_report
from repro.analysis.streamable import (
    BATCH_ONLY,
    PREFIX_MERGEABLE,
    STATELESS,
    WINDOW_BOUNDED,
    operation_stream_report,
)
from repro.analysis.vectorize import (
    operation_vector_report,
    verdict_fingerprints,
)

__all__ = ["audit_payload", "strict_problems"]

_RACE_VERDICTS = (
    SESSION_CONFINED, LOCK_GUARDED, READ_ONLY_SHARED, RACY, OPAQUE,
)

#: (section, summary key, what) -- one ``--strict`` failure per nonzero
#: summary count
_STRICT_COUNTS = (
    ("vectorize", "opaque", "opaque verdict(s)"),
    ("streamable", "errors",
     "drift/state-bound error(s) (L041/L042/L045/L047/L048)"),
    ("streamable", "opaque", "opaque verdict(s)"),
    ("races", "errors", "concurrency error(s) (L049-L052/L056)"),
    ("races", "racy", "racy operation(s)"),
    ("races", "racy_modules", "racy module(s)"),
    ("races", "module_cycles", "lock cycle(s)"),
)


def _count(reports, severity: Severity) -> int:
    """Diagnostics of one severity across ``reports``."""
    return sum(
        diagnostic.severity is severity
        for report in reports
        for diagnostic in report.diagnostics
    )


def _section(reports, attribute: str, values: dict, **counts) -> dict:
    """One audit section: the reports plus their summary.

    The summary holds ``total``, the number of reports whose
    ``attribute`` equals each ``{key: value}`` of ``values``, and the
    precomputed ``counts``.
    """
    summary = {"total": len(reports), **counts}
    for key, value in values.items():
        summary[key] = sum(
            getattr(report, attribute) == value for report in reports
        )
    return {
        "operations": [report.to_dict() for report in reports],
        "summary": summary,
    }


def _catalog() -> tuple:
    """Per catalog template: vectorize fingerprints, streamable steps."""
    from repro.algorithms import ALGORITHMS, build_algorithm
    from repro.core.operations import OPERATIONS

    vectors: dict = {}
    streams: dict = {}
    for algorithm_id in sorted(ALGORITHMS):
        template = build_algorithm(algorithm_id).full_template()
        vectors[algorithm_id] = verdict_fingerprints(
            template, outputs=["metrics"]
        )
        reports = [
            operation_stream_report(OPERATIONS[step["func"]])
            for step in template
            if step.get("func") in OPERATIONS
        ]
        streams[algorithm_id] = {
            "steps": [
                {
                    "func": report.operation,
                    "verdict": report.verdict,
                    "state_bound": report.state_bound,
                    "refusal": report.refusal,
                }
                for report in reports
            ],
            "streamable": all(report.refusal is None for report in reports),
        }
    return vectors, streams


def audit_payload(*, catalog: bool = False) -> dict:
    """The four audit sections of ``repro audit``, keyed by section.

    ``effects``, ``vectorize``, ``streamable`` and ``races`` each list
    every registered operation's report in name order with a
    ``summary`` of counts; ``races`` also classifies
    :data:`~repro.analysis.concurrency.CORE_MODULES` under
    ``modules``.  ``catalog=True`` adds a ``catalog`` block to
    ``vectorize`` and ``streamable``.
    """
    from repro.core.operations import OPERATIONS

    rows = [
        (
            operation_report(operation),
            operation_vector_report(operation),
            operation_stream_report(operation),
            operation_concurrency_report(operation),
        )
        for _, operation in sorted(OPERATIONS.items())
    ]
    effects, vectors, streams, races = (list(column) for column in zip(*rows))
    modules = [module_concurrency_report(name) for name in CORE_MODULES]
    payload = {
        "effects": _section(
            effects, "purity",
            {"pure": PURE, "seeded": SEEDED, "io": IO, "stateful": STATEFUL},
        ),
        "vectorize": _section(
            vectors, "verdict",
            {
                "elementwise": ELEMENTWISE,
                "row_parallel": ROW_PARALLEL,
                "sequential": SEQUENTIAL,
                "opaque": OPAQUE,
            },
        ),
        "streamable": _section(
            streams, "verdict",
            {
                "stateless": STATELESS,
                "prefix_mergeable": PREFIX_MERGEABLE,
                "window_bounded": WINDOW_BOUNDED,
                "batch_only": BATCH_ONLY,
                "opaque": OPAQUE,
            },
            streamable=sum(report.streamable for report in streams),
            errors=_count(streams, Severity.ERROR),
        ),
        "races": _section(
            races, "verdict",
            {verdict.replace("-", "_"): verdict for verdict in _RACE_VERDICTS},
            errors=_count(races, Severity.ERROR)
            + sum(module["errors"] for module in modules),
            warnings=_count(races, Severity.WARNING)
            + sum(module["warnings"] for module in modules),
            module_cycles=sum(len(module["cycles"]) for module in modules),
            racy_modules=sum(module["verdict"] == RACY for module in modules),
        ),
    }
    payload["races"]["modules"] = modules
    if catalog:
        vector_catalog, stream_catalog = _catalog()
        payload["vectorize"]["catalog"] = vector_catalog
        payload["streamable"]["catalog"] = stream_catalog
    return payload


def strict_problems(payload: dict) -> list:
    """Every ``--strict`` failure reason across the four sections."""
    problems = []
    unsafe = sorted(
        op["operation"]
        for op in payload["effects"]["operations"]
        if op["purity"] in (STATEFUL, IO)
    )
    if unsafe:
        problems.append(
            f"effects: {len(unsafe)} operation(s) not proven safe: "
            f"{', '.join(unsafe)}"
        )
    for section, key, what in _STRICT_COUNTS:
        count = payload[section]["summary"][key]
        if count:
            problems.append(f"{section}: {count} {what}")
    return problems
