#!/usr/bin/env python3
"""Validate a JSONL trace file against the repro.obs event schema.

Stdlib-only (CI runs it without installing the package).  Checks that
every line is a JSON object of kind ``span`` or ``event`` with the
fields the sinks write (see ``docs/OBSERVABILITY.md``), that ids are
consistent (a span's parent, when present in the file, shares its
trace id), that the file contains at least one span, and that every
``step:*`` span carries the resource attributes the engine's
:class:`ResourceProbe` attaches (cpu_seconds, rss_peak_bytes,
gc_collections; alloc_bytes/alloc_peak_bytes when memory tracking was
on).  A ``step:*`` span whose parent is in the file must hang under
``run`` or ``stream_chunk`` -- the engine's two drivers, which run
steps through one core.  Parent links are checked once the whole file
is read, because a child span closes (and is written) before its
parent.  ``run_stream`` spans must carry either a non-empty
``stream_refused`` reason or a ``chunks`` count, and every
``stream_chunk`` span must carry its chunk index and the carried-state
byte measurement.  The serve daemon's spans are validated too: a
``serve`` root span needs its config attrs (chunk_seconds, pps,
policy, queue_capacity), non-negative outcome counters
(chunks_scored/quarantined/dropped, reloads, watchdog_restarts) and a
non-empty ``outcome``; ``ingest`` spans need the replay ``row`` they
started at (plus ``rows`` moved when they succeeded); ``score_chunk``
spans need chunk/rows/row_start and a 1-based ``attempt``.

With ``--progress`` the file is instead validated as a matrix
progress-event journal (``repro matrix --progress-file``): every line
must be a ``kind: progress`` object with the documented counters,
``done`` must advance monotonically without exceeding ``total``, and
the failure count must never decrease.

Usage:  python tools/check_trace.py TRACE.jsonl [MORE...]
        python tools/check_trace.py --progress PROGRESS.jsonl [MORE...]
Exit status 1 when any file is empty, malformed, or schema-invalid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_NUMBER = (int, float)

_SPAN_FIELDS = {
    "name": str,
    "span_id": int,
    "trace_id": int,
    "ts": _NUMBER,
    "duration_seconds": _NUMBER,
    "status": str,
    "attrs": dict,
}

_EVENT_FIELDS = {
    "name": str,
    "ts": _NUMBER,
    "attrs": dict,
}

#: resource attrs the engine's ResourceProbe puts on every step span
_RESOURCE_ATTRS = {
    "cpu_seconds": _NUMBER,
    "rss_peak_bytes": int,
    "gc_collections": int,
}

#: attached only when allocation tracking (tracemalloc) was on
_ALLOC_ATTRS = {
    "alloc_bytes": int,
    "alloc_peak_bytes": int,
}

_PROGRESS_FIELDS = {
    "ts": _NUMBER,
    "total": int,
    "done": int,
    "ok": int,
    "failed": int,
    "resumed": int,
    "retried": int,
    "faults_injected": int,
    "elapsed_seconds": _NUMBER,
    "cell": str,
    "outcome": str,
}

_PROGRESS_OUTCOMES = ("ok", "failed", "resumed")

#: the spans a ``step:*`` span may hang under: the engine's two drivers
_STEP_PARENTS = ("run", "stream_chunk")


def _check_resources(where: str, span: dict, problems: list[str]) -> None:
    """Resource attrs every ``step:*`` span must carry."""
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    for name, types in _RESOURCE_ATTRS.items():
        value = attrs.get(name)
        if value is None:
            problems.append(f"{where}: step span missing resource "
                            f"attr {name!r}")
        elif not isinstance(value, types) or isinstance(value, bool):
            problems.append(f"{where}: resource attr {name!r} has type "
                            f"{type(value).__name__}")
        elif value < 0:
            problems.append(f"{where}: resource attr {name!r} is negative")
    for name, types in _ALLOC_ATTRS.items():
        value = attrs.get(name)
        if value is not None and (
            not isinstance(value, types) or isinstance(value, bool)
        ):
            problems.append(f"{where}: alloc attr {name!r} has type "
                            f"{type(value).__name__}")


#: attrs every stream_chunk span must carry (chunked engine mode)
_STREAM_CHUNK_ATTRS = {
    "chunk": int,
    "rows": int,
    "state_bytes": int,
}


def _check_stream_chunk(where: str, span: dict, problems: list[str]) -> None:
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    for name, types in _STREAM_CHUNK_ATTRS.items():
        value = attrs.get(name)
        if value is None:
            problems.append(f"{where}: stream_chunk span missing attr "
                            f"{name!r}")
        elif not isinstance(value, types) or isinstance(value, bool):
            problems.append(f"{where}: stream attr {name!r} has type "
                            f"{type(value).__name__}")
        elif value < 0:
            problems.append(f"{where}: stream attr {name!r} is negative")


def _check_run_stream(where: str, span: dict, problems: list[str]) -> None:
    """A run_stream span either refused visibly or counted its chunks."""
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    refused = attrs.get("stream_refused")
    if refused is not None:
        if not isinstance(refused, str) or not refused:
            problems.append(f"{where}: stream_refused must be a "
                            "non-empty string")
        return
    chunks = attrs.get("chunks")
    if span.get("status") != "ok":
        return  # an errored run may have died before counting
    if not isinstance(chunks, int) or isinstance(chunks, bool):
        problems.append(f"{where}: run_stream span carries neither "
                        "stream_refused nor an int 'chunks' count")
    elif chunks < 0:
        problems.append(f"{where}: run_stream chunk count is negative")


#: attrs every serve (daemon root) span must carry
_SERVE_ATTRS = {
    "chunk_seconds": _NUMBER,
    "pps": _NUMBER,
    "policy": str,
    "queue_capacity": int,
}

#: counters a completed serve span reports
_SERVE_COUNTERS = (
    "chunks_scored",
    "chunks_quarantined",
    "chunks_dropped",
    "reloads",
    "watchdog_restarts",
)


def _check_serve(where: str, span: dict, problems: list[str]) -> None:
    """The daemon's root span: config attrs plus outcome counters."""
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    for name, types in _SERVE_ATTRS.items():
        value = attrs.get(name)
        if value is None:
            problems.append(f"{where}: serve span missing attr {name!r}")
        elif not isinstance(value, types) or isinstance(value, bool):
            problems.append(f"{where}: serve attr {name!r} has type "
                            f"{type(value).__name__}")
    for name in _SERVE_COUNTERS:
        value = attrs.get(name)
        if value is None:
            problems.append(f"{where}: serve span missing counter {name!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: serve counter {name!r} has type "
                            f"{type(value).__name__}")
        elif value < 0:
            problems.append(f"{where}: serve counter {name!r} is negative")
    outcome = attrs.get("outcome")
    if not isinstance(outcome, str) or not outcome:
        problems.append(f"{where}: serve span needs a non-empty "
                        "'outcome' string")


def _check_ingest(where: str, span: dict, problems: list[str]) -> None:
    """One replay delivery: where it started, how many rows it moved."""
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    row = attrs.get("row")
    if not isinstance(row, int) or isinstance(row, bool) or row < 0:
        problems.append(f"{where}: ingest span needs a non-negative "
                        "int 'row'")
    rows = attrs.get("rows")
    if span.get("status") != "ok":
        return  # a failed delivery died before counting rows
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 0:
        problems.append(f"{where}: ingest span needs a non-negative "
                        "int 'rows'")


#: attrs every score_chunk attempt span must carry
_SCORE_CHUNK_ATTRS = {
    "chunk": int,
    "rows": int,
    "row_start": int,
    "attempt": int,
}


def _check_score_chunk(where: str, span: dict, problems: list[str]) -> None:
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        return
    for name, types in _SCORE_CHUNK_ATTRS.items():
        value = attrs.get(name)
        if value is None:
            problems.append(f"{where}: score_chunk span missing attr "
                            f"{name!r}")
        elif not isinstance(value, types) or isinstance(value, bool):
            problems.append(f"{where}: score_chunk attr {name!r} has "
                            f"type {type(value).__name__}")
        elif value < 0:
            problems.append(f"{where}: score_chunk attr {name!r} is "
                            "negative")
    if isinstance(attrs.get("attempt"), int) and attrs["attempt"] < 1:
        problems.append(f"{where}: score_chunk attempt starts at 1")


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    spans: dict[int, dict] = {}
    linked: list[tuple[str, dict]] = []
    lines = 0
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        lines += 1
        where = f"{path}:{number}"
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: not valid JSON: {exc.msg}")
            continue
        if not isinstance(event, dict):
            problems.append(f"{where}: event is not an object")
            continue
        kind = event.get("kind")
        if kind == "span":
            required = _SPAN_FIELDS
        elif kind == "event":
            required = _EVENT_FIELDS
        else:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        for name, types in required.items():
            if name not in event:
                problems.append(f"{where}: {kind} missing field {name!r}")
            elif not isinstance(event[name], types):
                problems.append(
                    f"{where}: field {name!r} has type "
                    f"{type(event[name]).__name__}"
                )
        if kind != "span" or any(f not in event for f in _SPAN_FIELDS):
            continue
        if event["duration_seconds"] < 0:
            problems.append(f"{where}: negative duration")
        parent = event.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            problems.append(f"{where}: parent_id is not an int or null")
        elif parent is not None:
            linked.append((where, event))
        if event["name"].startswith("step:"):
            _check_resources(where, event, problems)
        elif event["name"] == "stream_chunk":
            _check_stream_chunk(where, event, problems)
        elif event["name"] == "run_stream":
            _check_run_stream(where, event, problems)
        elif event["name"] == "serve":
            _check_serve(where, event, problems)
        elif event["name"] == "ingest":
            _check_ingest(where, event, problems)
        elif event["name"] == "score_chunk":
            _check_score_chunk(where, event, problems)
        spans[event["span_id"]] = event
    for where, event in linked:
        parent = spans.get(event["parent_id"])
        if parent is None:
            continue
        if parent["trace_id"] != event["trace_id"]:
            problems.append(
                f"{where}: span {event['span_id']} disagrees with its "
                f"parent about the trace id"
            )
        if (
            event["name"].startswith("step:")
            and parent["name"] not in _STEP_PARENTS
        ):
            problems.append(
                f"{where}: {event['name']} hangs under "
                f"{parent['name']!r}, not run or stream_chunk"
            )
    if lines == 0:
        problems.append(f"{path}: trace is empty")
    elif not spans:
        problems.append(f"{path}: no span events")
    return problems


def check_progress_file(path: Path) -> list[str]:
    """Validate a matrix progress-event journal."""
    problems: list[str] = []
    lines = 0
    last_done = 0
    last_failed = 0
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        lines += 1
        where = f"{path}:{number}"
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: not valid JSON: {exc.msg}")
            continue
        if not isinstance(event, dict):
            problems.append(f"{where}: event is not an object")
            continue
        if event.get("kind") != "progress":
            problems.append(
                f"{where}: kind is {event.get('kind')!r}, not 'progress'"
            )
            continue
        bad = False
        for name, types in _PROGRESS_FIELDS.items():
            value = event.get(name)
            if value is None:
                problems.append(f"{where}: missing field {name!r}")
                bad = True
            elif not isinstance(value, types) or isinstance(value, bool):
                problems.append(f"{where}: field {name!r} has type "
                                f"{type(value).__name__}")
                bad = True
        if bad:
            continue
        if event["outcome"] not in _PROGRESS_OUTCOMES:
            problems.append(f"{where}: unknown outcome "
                            f"{event['outcome']!r}")
        if event["done"] != event["ok"] + event["failed"] + event["resumed"]:
            problems.append(f"{where}: done != ok + failed + resumed")
        if event["done"] <= last_done:
            problems.append(f"{where}: done did not advance "
                            f"({last_done} -> {event['done']})")
        if event["done"] > event["total"]:
            problems.append(f"{where}: done exceeds total")
        if event["failed"] < last_failed:
            problems.append(f"{where}: failure count decreased "
                            f"({last_failed} -> {event['failed']})")
        last_done = max(last_done, event["done"])
        last_failed = max(last_failed, event["failed"])
    if lines == 0:
        problems.append(f"{path}: progress journal is empty")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    progress_mode = "--progress" in args
    paths = [a for a in args if a != "--progress"]
    if not paths:
        print("usage: check_trace.py [--progress] FILE.jsonl [MORE...]",
              file=sys.stderr)
        return 2
    problems: list[str] = []
    total = 0
    for raw in paths:
        path = Path(raw)
        if progress_mode:
            found = check_progress_file(path)
        else:
            found = check_file(path)
        problems.extend(found)
        if not found:
            events = [json.loads(line)
                      for line in path.read_text().splitlines()
                      if line.strip()]
            if progress_mode:
                total += len(events)
            else:
                total += sum(e.get("kind") == "span" for e in events)
    for problem in problems:
        print(problem)
    unit = "progress event(s)" if progress_mode else "span(s)"
    print(f"{len(paths)} file(s): {total} {unit}, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
