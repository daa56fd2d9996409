"""Framework error types, and the JSON readers that raise them.

:class:`InputError` is the one type for input the program cannot use:
a malformed template, result store, journal or status file, an unknown
algorithm or dataset id, a bad fault spec.  ``repro.cli.main`` reports
it as one ``error:`` line with exit 2; every other exception is a
program fault and keeps its traceback.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path


class InputError(ValueError):
    """Input the program cannot use; the message names where and why."""


class UnknownIdError(InputError, KeyError):
    """An algorithm or dataset id that is not registered.

    Still a :class:`KeyError` for lookup-style callers, but rendered
    like any other error: ``str()`` is the message, without the quotes
    ``KeyError`` adds.
    """

    __str__ = BaseException.__str__


class TemplateError(InputError):
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


class StateLayoutError(InputError):
    """Pickled carried state uses a layout this version cannot load,
    e.g. a serve checkpoint written before the state layout changed."""


def read_json(
    path: str | Path, what: str, error: type[InputError] = InputError
) -> object:
    """Parse the JSON file at ``path``, or raise ``error`` naming it.

    ``what`` names the format in the message (``"result store"``); the
    message also carries the path and, for bad JSON, the line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise error(f"no {what} at {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: unreadable {what}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}:{exc.lineno}: {what} is not valid JSON: {exc.msg}"
        ) from exc


@functools.cache
def _json_types(cls: type) -> dict[str, object]:
    """Per field of dataclass ``cls``, what ``isinstance`` must accept
    for its JSON value: JSON has one number type, and a generic such as
    ``dict[str, float]`` is checked as its container only."""
    accepts = {}
    for name, hint in typing.get_type_hints(cls).items():
        if hint is float:
            accepts[name] = (int, float)
        elif isinstance(hint, types.UnionType):
            accepts[name] = hint
        else:
            accepts[name] = typing.get_origin(hint) or hint
    return accepts


def dataclass_from_json(cls: type, payload: object, where: str):
    """Build dataclass ``cls`` from one JSON object read from a file.

    Raises :class:`InputError` prefixed with ``where`` (the path, and
    the record's line or index) for a payload that is not an object,
    has a field ``cls`` lacks or lacks one without a default, holds a
    value of the wrong JSON type, or fails ``cls``'s own checks.
    """
    if not isinstance(payload, dict):
        raise InputError(f"{where}: not a JSON object")
    accepts = _json_types(cls)
    unknown = sorted(set(payload) - set(accepts))
    if unknown:
        raise InputError(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(
        f.name for f in dataclasses.fields(cls)
        if f.name not in payload
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )
    if missing:
        raise InputError(f"{where}: missing field(s) {', '.join(missing)}")
    for name, value in payload.items():
        if not isinstance(value, accepts[name]):
            raise InputError(
                f"{where}: field {name!r} holds a {type(value).__name__}"
            )
    try:
        return cls(**payload)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
