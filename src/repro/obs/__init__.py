"""Run-scoped observability: tracing, metrics, and trace export.

Zero-dependency instrumentation for the whole framework:

* :mod:`repro.obs.spans` -- a :class:`Tracer` producing hierarchical
  spans (``run > step``, ``evaluate > featurize/train/test``)
  via context managers, cheap enough to stay always-on;
* :mod:`repro.obs.metrics` -- the process-global
  :class:`MetricsRegistry` (cache hits/misses, steps executed, packets
  generated, evaluations completed, ...);
* :mod:`repro.obs.resources` -- the :class:`ResourceProbe` attaching
  CPU time, peak RSS, GC and allocation deltas to spans;
* :mod:`repro.obs.sinks` -- where events go: an in-memory ring buffer,
  or a JSONL file (``REPRO_TRACE_FILE`` / ``--trace``);
* :mod:`repro.obs.render` -- the human tree view and the shared
  KiB/MiB/GiB byte formatter.

See ``docs/OBSERVABILITY.md`` for the span model and metric names.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledFamily,
    METRICS,
    MetricsRegistry,
    get_metrics,
    observe_uptime,
)
from repro.obs.render import TreeRenderer, build_tree, format_bytes
from repro.obs.resources import ResourceProbe, gc_collections, rss_peak_bytes
from repro.obs.sinks import JsonlFileSink, RingBufferSink, read_trace
from repro.obs.spans import Span, Tracer, get_ring, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledFamily",
    "METRICS",
    "MetricsRegistry",
    "get_metrics",
    "observe_uptime",
    "TreeRenderer",
    "build_tree",
    "format_bytes",
    "JsonlFileSink",
    "RingBufferSink",
    "read_trace",
    "ResourceProbe",
    "gc_collections",
    "rss_peak_bytes",
    "Span",
    "Tracer",
    "get_ring",
    "get_tracer",
]
