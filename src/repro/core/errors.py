"""Framework error types."""

from __future__ import annotations


class TemplateError(ValueError):
    """The template file is malformed: unknown operation, missing
    parameter, undefined input name, or a type mismatch between
    connected operations.  Raised during validation, before execution."""


class TemplateDiagnosticError(TemplateError):
    """A template was rejected by the static analyzer.

    Carries the analyzer's structured diagnostics (objects with stable
    ``L0xx`` codes -- see :mod:`repro.analysis.diagnostics`) so callers
    can inspect *what* failed programmatically instead of parsing the
    message.
    """

    def __init__(self, diagnostics: list) -> None:
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)

    def codes(self) -> set[str]:
        """The set of diagnostic codes carried by this error."""
        return {d.code for d in self.diagnostics}


class EvaluationTimeout(RuntimeError):
    """A benchmark cell exceeded its wall-clock deadline.

    Raised by the runner's watchdog (not by the cell itself), so it is
    distinguishable from any exception the evaluation code could raise
    and can be reported -- and retried -- as its own failure class.
    """

    def __init__(self, seconds: float, cell: str) -> None:
        super().__init__(
            f"evaluation {cell} exceeded its {seconds:g}s deadline"
        )
        self.seconds = seconds
        self.cell = cell


class PipelineError(RuntimeError):
    """An operation failed at execution time.

    Always raised with ``raise PipelineError(...) from cause`` at the
    engine's raise site so the originating operation failure stays on
    the traceback chain; the cause is also kept on ``.cause``.
    """

    def __init__(self, operation: str, step: int, cause: Exception) -> None:
        super().__init__(
            f"operation {operation!r} (step {step}) failed: {cause}"
        )
        self.operation = operation
        self.step = step
        self.cause = cause


class StateLayoutError(ValueError):
    """Pickled carried state uses a layout this version cannot load,
    e.g. a serve checkpoint written before the state layout changed."""
