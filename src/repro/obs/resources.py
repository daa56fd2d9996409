"""Resource telemetry: CPU, peak RSS, allocation and GC deltas for spans.

Wall-clock alone cannot distinguish "this step burned a core" from
"this step waited on the pool": a :class:`ResourceProbe` samples the
cheap process counters at span start and end and attaches the deltas
as span attributes, so every engine step and run and every benchmark
evaluation carries its own resource bill:

* ``cpu_seconds`` -- CPU time consumed during the span: by the
  *probing thread* (``time.thread_time``) for step spans, so a step
  is billed to the thread that ran it; by the whole *process*
  (``time.process_time``) for container spans (run, evaluate) whose
  work may span threads;
* ``rss_peak_bytes`` -- the process peak resident set size
  (``getrusage`` high-water mark, normalised to bytes) observed at
  span end;
* ``gc_collections`` -- garbage-collector collections that ran during
  the span (summed over all generations);
* ``alloc_bytes`` / ``alloc_peak_bytes`` -- net and peak tracemalloc
  allocation deltas, attached only when the probe owns (or joins) a
  tracemalloc session -- tracing costs real time, so it stays opt-in
  (the engine's ``track_memory`` flag).

Everything degrades gracefully: on platforms without ``resource``
(Windows) the RSS attribute reports 0, and without tracemalloc the
allocation attributes are simply absent.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc

try:  # pragma: no cover - always present on the POSIX CI matrix
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None

__all__ = ["ResourceProbe", "rss_peak_bytes", "gc_collections"]


def rss_peak_bytes() -> int:
    """The process's peak resident set size, in bytes (0 if unknown).

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS; normalise
    so every trace reads in one unit.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def gc_collections() -> int:
    """Total garbage collections the process has run, all generations."""
    return sum(stat["collections"] for stat in gc.get_stats())


class ResourceProbe:
    """Samples resource counters around one region of work.

    Usage::

        probe = ResourceProbe(track_alloc=engine.track_memory)
        probe.start()
        ...            # the work
        probe.finish(span)   # attaches the attribute deltas

    ``track_alloc=True`` starts tracemalloc for the probe's lifetime
    (unless a session is already running, in which case the probe
    joins it and leaves it running).  ``cpu="process"`` measures
    process-wide CPU instead of the probing thread's -- the right unit
    for spans whose work fans out to pool threads.  The probe is
    intentionally not a context manager: the engine needs to
    interleave it with exception handling that must stop tracemalloc
    on the error path too.
    """

    def __init__(self, *, track_alloc: bool = False, cpu: str = "thread") -> None:
        if cpu not in ("thread", "process"):
            raise ValueError(f"cpu must be 'thread' or 'process', not {cpu!r}")
        self.track_alloc = track_alloc
        self._clock = time.thread_time if cpu == "thread" else time.process_time
        self._cpu_start = 0.0
        self._gc_start = 0
        self._alloc_start: int | None = None
        self._owns_tracemalloc = False

    def start(self) -> "ResourceProbe":
        if self.track_alloc:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True
            self._alloc_start, _ = tracemalloc.get_traced_memory()
        self._gc_start = gc_collections()
        self._cpu_start = self._clock()
        return self

    def stop(self) -> dict:
        """Sample the deltas; returns the attribute dict.

        Safe to call more than once (the error path and the success
        path may both reach it); only the first call stops a
        tracemalloc session this probe started.
        """
        attrs = {
            "cpu_seconds": max(0.0, self._clock() - self._cpu_start),
            "rss_peak_bytes": rss_peak_bytes(),
            "gc_collections": max(0, gc_collections() - self._gc_start),
        }
        if self._alloc_start is not None and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            attrs["alloc_bytes"] = int(current - self._alloc_start)
            attrs["alloc_peak_bytes"] = int(peak)
            if self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False
        return attrs

    def finish(self, span) -> dict:
        """Stop sampling and attach every attribute to ``span``."""
        attrs = self.stop()
        for name, value in attrs.items():
            span.set(name, value)
        return attrs
