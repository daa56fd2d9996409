"""Live matrix progress: done/total, rates, ETA, failures, cache hits.

A multi-hour benchmark campaign should not run blind until the final
report.  :class:`MatrixProgress` watches a campaign from inside
:meth:`BenchmarkRunner.run_matrix`: every finished cell (ok, failed,
or skipped by a resume journal) produces one **progress event** -- a
JSON-friendly dict with monotonically advancing counts, the measured
cells/hour, an ETA, and the campaign-scoped deltas of the relevant
process metrics (retries, cache hit-rate, injected faults).

Events fan out to sinks, same contract as trace sinks (`emit(dict)`):

* :class:`TtyProgressRenderer` -- a live single-line display on a TTY
  (``repro matrix --progress``), one line per event when piped;
* :class:`~repro.obs.JsonlFileSink` -- a tail-able progress file
  (``--progress-file``), the heartbeat a monitoring daemon can follow.

The event schema is validated by ``tools/check_trace.py --progress``
and documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from repro.obs import METRICS
from repro.obs import metrics as metric_names

__all__ = [
    "MatrixProgress",
    "ProgressEvent",
    "TtyProgressRenderer",
    "format_progress",
]


@dataclass
class ProgressEvent:
    """One snapshot of a running campaign, after one cell finished."""

    ts: float
    total: int
    done: int                 # ok + failed + resumed; never decreases
    ok: int
    failed: int
    resumed: int
    retried: int              # retry attempts since the campaign began
    faults_injected: int
    elapsed_seconds: float
    cells_per_hour: float | None   # measured over executed cells
    eta_seconds: float | None
    cache_hit_rate: float | None   # engine cache, campaign-scoped
    cell: str                 # the cell that just finished, "A00/F0/F0"
    outcome: str              # "ok" | "failed" | "resumed"

    def to_event(self) -> dict:
        return {"kind": "progress", **self.__dict__}


class _CounterDelta:
    """Campaign-scoped view of one process-global counter."""

    def __init__(self, name: str) -> None:
        self._counter = METRICS.counter(name)
        self._base = self._counter.value

    @property
    def value(self) -> float:
        return max(0.0, self._counter.value - self._base)


class MatrixProgress:
    """Tracks one campaign and fans progress events out to sinks.

    Construct it (with its sinks) *before* the campaign starts -- the
    runner calls :meth:`begin` with the cell count, which snapshots the
    process counters so every reported rate is scoped to this campaign
    rather than the whole process lifetime.
    """

    def __init__(self, sinks: list | None = None) -> None:
        self.sinks: list = list(sinks or [])
        self.total = 0
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.resumed = 0
        self._started = time.perf_counter()
        self._deltas: dict[str, _CounterDelta] = {}
        self._begun = False

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    @property
    def begun(self) -> bool:
        """Whether :meth:`begin` has started the campaign clock."""
        return self._begun

    def begin(self, total: int) -> None:
        """Start (or restart) the campaign clock over ``total`` cells."""
        self.total = int(total)
        self.done = self.ok = self.failed = self.resumed = 0
        self._started = time.perf_counter()
        self._deltas = {
            name: _CounterDelta(name)
            for name in (
                metric_names.EVALUATIONS_RETRIED,
                metric_names.FAULTS_INJECTED,
                metric_names.CACHE_HITS,
                metric_names.CACHE_MISSES,
            )
        }
        self._begun = True

    def _delta(self, name: str) -> float:
        delta = self._deltas.get(name)
        return delta.value if delta is not None else 0.0

    def record(self, cell: tuple[str, str, str], outcome: str) -> ProgressEvent:
        """Account one finished cell and emit a progress event."""
        if not self._begun:
            self.begin(self.total)
        self.done += 1
        if outcome == "ok":
            self.ok += 1
        elif outcome == "failed":
            self.failed += 1
        elif outcome == "resumed":
            self.resumed += 1
        else:
            raise ValueError(f"unknown cell outcome {outcome!r}")
        event = self.snapshot(cell="/".join(cell), outcome=outcome)
        for sink in self.sinks:
            sink.emit(event.to_event())
        METRICS.counter(
            metric_names.PROGRESS_EVENTS,
            "matrix progress events emitted",
        ).inc()
        return event

    def snapshot(self, *, cell: str = "", outcome: str = "ok") -> ProgressEvent:
        """The current campaign state as one event (no emission)."""
        elapsed = time.perf_counter() - self._started
        executed = self.done - self.resumed
        rate = executed / elapsed * 3600.0 if elapsed > 0 and executed else None
        remaining = max(0, self.total - self.done)
        eta = remaining / rate * 3600.0 if rate else None
        hits = self._delta(metric_names.CACHE_HITS)
        misses = self._delta(metric_names.CACHE_MISSES)
        lookups = hits + misses
        return ProgressEvent(
            ts=datetime.now(timezone.utc).timestamp(),
            total=self.total,
            done=self.done,
            ok=self.ok,
            failed=self.failed,
            resumed=self.resumed,
            retried=int(self._delta(metric_names.EVALUATIONS_RETRIED)),
            faults_injected=int(self._delta(metric_names.FAULTS_INJECTED)),
            elapsed_seconds=elapsed,
            cells_per_hour=rate,
            eta_seconds=eta,
            cache_hit_rate=hits / lookups if lookups else None,
            cell=cell,
            outcome=outcome,
        )

    def close(self) -> None:
        """Close every sink that knows how to close (idempotent)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def format_progress(event: dict) -> str:
    """One human line for a progress event dict."""
    total = event.get("total") or 0
    done = event.get("done") or 0
    percent = f" ({done / total:.0%})" if total else ""
    parts = [
        f"cells {done}/{total}{percent}",
        f"ok={event.get('ok', 0)}",
        f"failed={event.get('failed', 0)}",
    ]
    if event.get("retried"):
        parts.append(f"retried={event['retried']}")
    if event.get("resumed"):
        parts.append(f"resumed={event['resumed']}")
    rate = event.get("cells_per_hour")
    if rate:
        parts.append(f"{rate:,.0f} cells/h")
    eta = event.get("eta_seconds")
    if eta is not None:
        parts.append(f"eta {_duration(eta)}")
    hit_rate = event.get("cache_hit_rate")
    if hit_rate is not None:
        parts.append(f"cache {hit_rate:.0%}")
    return "  ".join(parts)


def _duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


class TtyProgressRenderer:
    """Renders progress events to a terminal.

    On a TTY the line is redrawn in place (carriage return + clear);
    piped output gets one line per event so logs stay greppable.
    ``close()`` finishes the in-place line with a newline.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._live = False

    def _isatty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        return bool(isatty()) if isatty is not None else False

    def emit(self, event: dict) -> None:
        if event.get("kind") != "progress":
            return
        line = format_progress(event)
        if self._isatty():
            self.stream.write("\r\x1b[K" + line)
            self._live = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self._live:
            self.stream.write("\n")
            self.stream.flush()
            self._live = False
