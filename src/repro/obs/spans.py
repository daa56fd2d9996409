"""Hierarchical spans: where a run spends its time, and in what.

The span model is deliberately small -- the paper's engine "generates
plots of memory and time spent in each operation"; this generalises
that to the whole system:

* ``run > step`` -- one engine execution and the operations it ran,
  in order;
* ``evaluate > featurize/train/test > run > step`` -- one benchmark
  cell and its phases.

A :class:`Span` has a name, ids linking it into a tree, a wall-clock
start, a duration measured with ``time.perf_counter()``, and a free
attribute dict (cache disposition, peak memory, precision/recall, ...).
Spans are created with the :meth:`Tracer.span` context manager; nesting
follows a thread-local stack, so ordinary call structure produces the
tree with no plumbing.  Work handed to another thread passes
``parent=`` explicitly (the serve daemon's deadline thread attributes
each chunk to its ``score_chunk`` span this way).

The tracer is cheap enough to leave always-on: ending a span builds one
dict and appends it to the attached sinks (a bounded ring buffer by
default; a JSONL file when ``REPRO_TRACE_FILE`` or ``--trace`` asks
for one).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.obs.sinks import JsonlFileSink, RingBufferSink


@dataclass
class Span:
    """One timed region of work, linked into a trace tree."""

    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    started_unix: float
    attributes: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    status: str = "ok"

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def to_event(self) -> dict:
        """The JSON-friendly wire form written to sinks."""
        return {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "ts": self.started_unix,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attrs": dict(self.attributes),
        }


class Tracer:
    """Produces spans and point events; fans them out to sinks.

    Span ids are process-unique and monotonically increasing in
    creation order, which gives renderers a deterministic sibling
    order without trusting wall-clock resolution.
    """

    def __init__(self, sinks: list | None = None) -> None:
        self.sinks: list = list(sinks or [])
        self._sinks_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        with self._sinks_lock:
            self.sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._sinks_lock:
            if sink in self.sinks:
                self.sinks.remove(sink)

    def _emit(self, event: dict) -> None:
        # snapshot under the lock so a concurrent add/remove cannot
        # tear the iteration; emission itself happens outside it (the
        # sinks carry their own locks).
        with self._sinks_lock:
            sinks = list(self.sinks)
        for sink in sinks:
            sink.emit(event)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, *, parent: Span | None = None, **attributes):
        """Open a span for the duration of the ``with`` block.

        ``parent`` overrides the thread-local nesting -- pass the
        enclosing span when the block runs on a different thread than
        the code that owns it.  Exceptions mark the span's status as
        ``error`` (with the exception type as an attribute) and
        propagate.
        """
        parent_span = parent if parent is not None else self.current_span()
        span_id = next(self._ids)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_span.span_id if parent_span else None,
            trace_id=parent_span.trace_id if parent_span else span_id,
            started_unix=datetime.now(timezone.utc).timestamp(),
            attributes=dict(attributes),
        )
        stack = self._stack()
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes.setdefault("error", type(exc).__name__)
            raise
        finally:
            span.duration_seconds = time.perf_counter() - started
            if stack and stack[-1] is span:
                stack.pop()
            self._emit(span.to_event())

    def event(self, name: str, **attributes) -> None:
        """Emit a zero-duration point event under the current span."""
        current = self.current_span()
        self._emit({
            "kind": "event",
            "name": name,
            "span_id": current.span_id if current else None,
            "trace_id": current.trace_id if current else None,
            "ts": datetime.now(timezone.utc).timestamp(),
            "attrs": dict(attributes),
        })


# ---------------------------------------------------------------------------
# the process-global tracer
# ---------------------------------------------------------------------------

_GLOBAL_TRACER: Tracer | None = None
_GLOBAL_RING: RingBufferSink | None = None
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (created on first use).

    It always carries a bounded :class:`RingBufferSink`; when the
    ``REPRO_TRACE_FILE`` environment variable is set at creation time,
    a :class:`JsonlFileSink` on that path is attached as well.
    """
    global _GLOBAL_TRACER, _GLOBAL_RING
    with _GLOBAL_LOCK:
        if _GLOBAL_TRACER is None:
            _GLOBAL_RING = RingBufferSink()
            _GLOBAL_TRACER = Tracer(sinks=[_GLOBAL_RING])
            path = os.environ.get("REPRO_TRACE_FILE")
            if path:
                _GLOBAL_TRACER.add_sink(JsonlFileSink(path))
        return _GLOBAL_TRACER


def get_ring() -> RingBufferSink:
    """The global tracer's in-memory ring buffer."""
    get_tracer()
    assert _GLOBAL_RING is not None
    return _GLOBAL_RING
