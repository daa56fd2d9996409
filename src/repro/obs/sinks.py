"""Where trace events go: ring buffer, JSONL file, or anything callable.

A sink is any object with an ``emit(event: dict) -> None`` method.  The
tracer fans every finished span (and point event) out to all attached
sinks; sinks must therefore be cheap and must never raise into the
traced code path.

* :class:`RingBufferSink` -- the always-on default: the last N events
  in memory, for ``repro trace`` style post-hoc inspection.
* :class:`JsonlFileSink` -- one JSON object per line, appended and
  flushed per event so a crashed run still leaves a usable trace.
  Activated by ``REPRO_TRACE_FILE`` or a ``--trace`` flag.

:class:`JsonlJournal` is the same append writer for durable logs (the
matrix checkpoint, the serve daemon's checkpoint, quarantine and
results journals) that differs only in serializing strictly;
:func:`read_journal` reads one back past a torn final line.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (None = unbounded)."""

    def __init__(self, capacity: int | None = 4096) -> None:
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlFileSink:
    """Appends one JSON line per event to ``path``.

    The file is opened lazily (so constructing a sink for a path the
    run never traces costs nothing) and every write is flushed, making
    partial traces from interrupted runs parseable up to the last
    event.  Values that are not JSON-native are ``repr``-ed rather than
    dropped.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def _encode(self, event: dict) -> str:
        # a sink must never raise into traced code
        return json.dumps(event, sort_keys=True, default=repr)

    def emit(self, event: dict) -> None:
        line = self._encode(event)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlJournal(JsonlFileSink):
    """Append-only JSONL journal with flush-per-line crash semantics.

    Every record is one JSON object on one line, written and flushed
    atomically with respect to this process; a hard kill can tear at
    most the final line, which :func:`read_journal` detects and skips.
    Unlike a trace sink the journal serializes strictly: a value JSON
    cannot encode fails the write instead of a later resume.  Records
    conventionally carry a ``"kind"`` field so mixed-record journals
    stay self-describing.
    """

    def _encode(self, record: dict) -> str:
        return json.dumps(record, sort_keys=True)

    append = JsonlFileSink.emit


def read_journal(path: str | Path) -> tuple[list[tuple[int, dict]], int]:
    """Parse a JSONL journal, tolerating a torn (killed-mid-write) tail.

    Returns ``(records, torn_lines)``, each record as ``(line number,
    object)``.  Unparseable lines are counted and traced
    (``checkpoint.torn_line``) rather than raised: the only expected
    corruption is the final line of a hard-killed process, and the
    record it would have held is re-derivable by re-running the work
    it described.  A line that parses but is not an object cannot be a
    torn journal line (each starts with ``{``), so it raises
    :class:`~repro.core.errors.InputError` naming the path and line,
    as does a missing or unreadable file.
    """
    # lazy: spans imports this module, and repro.core imports repro.obs
    from repro.core.errors import InputError
    from repro.obs.spans import get_tracer

    records: list[tuple[int, dict]] = []
    torn = 0
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: unreadable journal: {exc}") from exc
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            torn += 1
            get_tracer().event(
                "checkpoint.torn_line", path=str(path), line=number
            )
            continue
        if not isinstance(payload, dict):
            raise InputError(
                f"{path}:{number}: journal record is not a JSON object"
            )
        records.append((number, payload))
    return records, torn


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file back into its event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the offending line number (use ``tools/check_trace.py`` for
    a diagnostic pass that reports *all* problems).
    """
    events: list[dict] = []
    with Path(path).open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{number}: not valid JSON: {exc.msg}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{number}: event is not an object")
            events.append(event)
    return events
