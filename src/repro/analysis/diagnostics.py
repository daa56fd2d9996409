"""Structured diagnostics emitted by the static template analyzer.

Every problem the analyzer can find has a *stable code* (``L001`` ...)
so tests, tooling and CI assert on codes rather than message wording,
a :class:`Severity`, and an optional fix hint.  The full catalog of
codes lives in :data:`CODES` and is documented, with minimal offending
templates, in ``docs/TEMPLATES.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import TemplateDiagnosticError


class Severity(enum.Enum):
    """How bad a diagnostic is: errors block execution, warnings don't."""

    ERROR = "error"
    WARNING = "warning"


#: every diagnostic code the analyzer can emit, with a short title;
#: L034, L039 and L040 are retired and stay reserved.
CODES: dict[str, str] = {
    "L001": "empty or malformed template",
    "L002": "step is not a mapping",
    "L003": "step has no 'func'",
    "L004": "unknown operation",
    "L005": "step output missing or not a name string",
    "L006": "bad input specification",
    "L007": "parameter schema violation",
    "L008": "wrong number of inputs",
    "L009": "undefined input name",
    "L010": "input type mismatch",
    "L011": "duplicate output name",
    "L012": "unused intermediate output (dead operation)",
    "L013": "train before any model is instantiated",
    "L014": "trained model is never applied",
    "L015": "unknown model type",
    "L016": "faithfulness violation",
    "L017": "unsupported group-by flowid",
    "L018": "invalid parameter value",
    "L019": "requested output never produced",
    "L020": "unknown dataset id",
    "L021": "operation mutates an input or params binding in place",
    "L022": "operation writes module-global or closure state",
    "L023": "operation reads mutable module-global state",
    "L024": "operation draws from an unseeded RNG",
    "L025": "operation RNG seed is not threaded through params",
    "L026": "operation performs file or process I/O",
    "L027": "operation source unavailable for effect analysis",
    "L028": "step uses an operation the engine cannot cache",
    "L029": "near-duplicate steps differing only by redundant params",
    "L030": "dead template branch pruned by the shared-work planner",
    "L031": "prefix shared structurally but unshareable (stateful closure)",
    "L032": "semantic fingerprint collision",
    "L035": "shape mismatch across a template edge",
    "L036": "dtype widening or object-array fallback on a hot path",
    "L037": "hidden Python-level per-row loop in a featurizer",
    "L038": "row-order-sensitive operation without a declared sort key",
    "L041": "unbounded carried container in an operation with a stream body",
    "L042": "whole-trace reduction in an operation with a stream body",
    "L043": "window bound not derivable from params",
    "L044": "chunk-boundary order sensitivity without a declared sort key",
    "L045": "stream body on an operation not proven streamable",
    "L046": "batch-only operation pinning an otherwise streamable template",
    "L047": "eviction-free flow buffer",
    "L048": "inferred state bound exceeds the declared budget",
    "L049": "unguarded mutation of shared state",
    "L050": "state mutated both under and outside its lock",
    "L051": "lock-acquisition cycle (deadlock potential)",
    "L052": "carried stream state escapes its session",
    "L053": "bare acquire()/release() instead of a with block",
    "L056": "thread-hostile callee (process-global side effect)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: Severity
    message: str
    step: int | None = None
    operation: str | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code: {self.code!r}")

    def __str__(self) -> str:
        where = ""
        if self.step is not None:
            where = f" step {self.step}"
            if self.operation:
                where += f" ({self.operation})"
        text = f"{self.code} {self.severity.value}{where}: {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


@dataclass
class AnalysisResult:
    """All diagnostics from one analyzer run over one template."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether the template may execute (warnings allowed)."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(str(d) for d in self.diagnostics)

    def raise_if_errors(self) -> None:
        """Raise :class:`TemplateDiagnosticError` when any error exists."""
        errors = self.errors
        if errors:
            raise TemplateDiagnosticError(errors)
