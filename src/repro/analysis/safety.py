"""Purity of registered operations (L021--L028).

Reads the effect findings of each operation body from
:mod:`repro.analysis.facts` -- the AST effect walk over the recovered
source, the surrounding module's top-level bindings, and the runtime
closure cells the AST cannot see -- and publishes an
:class:`EffectReport` per operation with stable diagnostic codes
L021--L027.

The engine consults these reports to decide, per step, whether the
result cache may memoize the output; ``repro audit`` renders the same
reports for humans and CI.  ``pass_effects`` is the template-level
bridge: it warns (L028) on steps whose operation the engine will not
cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import (
    IO,
    PURE,
    SEEDED,
    STATEFUL,
    EffectKind,
    body_facts,
    memo,
    purity_of,
)

__all__ = [
    "EffectReport",
    "operation_report",
    "audit_registry",
    "pass_effects",
    "PURE",
    "SEEDED",
    "STATEFUL",
    "IO",
]

#: finding kind -> (diagnostic code, severity); PARAM_SEEDED_RNG is the
#: desired state and maps to no diagnostic at all.
_KIND_TO_CODE = {
    EffectKind.MUTATES_INPUT: ("L021", Severity.ERROR),
    EffectKind.MUTATES_PARAMS: ("L021", Severity.ERROR),
    EffectKind.WRITES_GLOBAL: ("L022", Severity.ERROR),
    EffectKind.MUTABLE_CLOSURE: ("L022", Severity.ERROR),
    EffectKind.READS_MUTABLE_GLOBAL: ("L023", Severity.ERROR),
    EffectKind.UNSEEDED_RNG: ("L024", Severity.ERROR),
    EffectKind.CONST_SEEDED_RNG: ("L025", Severity.WARNING),
    EffectKind.PERFORMS_IO: ("L026", Severity.WARNING),
    EffectKind.SOURCE_UNAVAILABLE: ("L027", Severity.WARNING),
}


@dataclass(frozen=True)
class EffectReport:
    """The engine-facing verdict for one registered operation."""

    operation: str
    purity: str
    seed_params: tuple
    findings: tuple
    diagnostics: tuple

    @property
    def cacheable(self) -> bool:
        """May the result cache memoize this op's output?"""
        return self.purity in (PURE, SEEDED)

    def codes(self) -> tuple:
        return tuple(sorted({d.code for d in self.diagnostics}))

    def to_dict(self) -> dict:
        # Deterministic on purpose: the JSON audit is diffed in CI, so
        # findings sort by (line, kind, detail) rather than AST-walk
        # order and seed params are alphabetical.
        return {
            "operation": self.operation,
            "purity": self.purity,
            "cacheable": self.cacheable,
            "seed_params": sorted(self.seed_params),
            "codes": list(self.codes()),
            "findings": sorted(
                (
                    {"kind": f.kind.value, "line": f.line, "detail": f.detail}
                    for f in self.findings
                ),
                key=lambda f: (f["line"], f["kind"], f["detail"]),
            ),
        }


def _diagnostics_for(name: str, findings) -> tuple:
    out = []
    for finding in findings:
        mapped = _KIND_TO_CODE.get(finding.kind)
        if mapped is None:
            continue
        code, severity = mapped
        out.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=f"{finding.detail} (line {finding.line})",
                operation=name,
                hint="copy before mutating, thread seeds through params,"
                " and keep module state behind UPPER_CASE constants",
            )
        )
    return tuple(out)


def _report(operation) -> EffectReport:
    findings: tuple = ()
    seeds: set = set()
    for body in (operation.fn, getattr(operation, "batch", None)):
        if body is None:
            continue
        facts = body_facts(body)
        findings += facts.effects
        seeds.update(facts.seed_params)
    return EffectReport(
        operation=operation.name,
        purity=purity_of(findings),
        seed_params=tuple(sorted(seeds)),
        findings=findings,
        diagnostics=_diagnostics_for(operation.name, findings),
    )


def operation_report(operation) -> EffectReport:
    """The cached :class:`EffectReport` for a registered operation.

    When the operation declares a ``batch=`` implementation its effects
    are folded into the same report: a pure scalar path gains nothing
    from a batched path the engine must refuse to cache.
    """
    batch = getattr(operation, "batch", None)
    return memo(
        ("effects", operation.name, operation.fn, batch),
        lambda: _report(operation),
    )


def audit_registry(operations=None) -> dict:
    """``{name: EffectReport}`` for every registered operation."""
    if operations is None:
        from repro.core.operations import OPERATIONS

        operations = OPERATIONS
    return {
        name: operation_report(op) for name, op in sorted(operations.items())
    }


def pass_effects(graph, diagnostics) -> None:
    """Template-level pass: warn on steps the engine must gate (L028)."""
    for node in graph.nodes:
        if node.operation is None:
            continue
        report = operation_report(node.operation)
        if report.cacheable:
            continue
        codes = ", ".join(report.codes()) or "no findings"
        diagnostics.append(
            Diagnostic(
                code="L028",
                severity=Severity.WARNING,
                message=(
                    f"operation implementation is {report.purity} ({codes}):"
                    " the engine will not cache this step"
                ),
                step=node.index,
                operation=node.func,
                hint="run `repro audit -v` for per-finding detail",
            )
        )
