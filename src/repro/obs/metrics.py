"""A process-global metrics registry: counters, gauges, histograms.

The observability counterpart of the tracer (:mod:`repro.obs.spans`):
where spans answer "where did *this run* spend its time", metrics
answer "what has the *process* done so far" -- cache hit-rates across a
whole evaluation matrix, packets generated while building datasets,
steps actually executed versus served from cache.  Both engine drivers
run their steps through one core, so streamed chunk steps count into
``engine_steps_executed_total`` beside batch ones.

Everything here is stdlib-only and thread-safe: engines on different
threads increment the same counters, and every read
(``value``, ``snapshot()``, the Prometheus exposition) takes the same
lock the writers hold, so a snapshot taken mid-observation can never
tear (a ``count`` from one observation paired with a ``sum`` from the
next).  Metrics are monotonic (counters) or last-write (gauges);
``snapshot()`` returns a plain dict and ``render_prometheus()`` a
Prometheus-style text exposition, both cheap enough to call at any
time.

Metrics may carry **labels**: asking the registry for a metric with
``labelnames=(...)`` returns a :class:`LabeledFamily` whose
``labels(...)`` method get-or-creates one child per label-value set --
``engine_step_seconds{operation="NprintEncode"}`` attributes step time
per operation instead of lumping every op into one histogram.  Label
values and help text are escaped per the Prometheus text-format rules
(backslash, double-quote and newline).
"""

from __future__ import annotations

import threading

# ---------------------------------------------------------------------------
# Well-known metric names (instrumentation sites and docs agree on these)
# ---------------------------------------------------------------------------

CACHE_HITS = "engine_cache_hits_total"
CACHE_MISSES = "engine_cache_misses_total"
CACHE_DISK_HITS = "engine_cache_disk_hits_total"
CACHE_EVICTIONS = "engine_cache_evictions_total"
STEPS_EXECUTED = "engine_steps_executed_total"
STEPS_CACHED = "engine_steps_cached_total"
CACHE_REFUSALS = "engine_cache_refusals_total"
BYTES_FINGERPRINTED = "engine_bytes_fingerprinted_total"
RUNS_COMPLETED = "engine_runs_total"
STEP_SECONDS = "engine_step_seconds"
CACHE_ENTRIES = "engine_cache_entries"
PACKETS_GENERATED = "traffic_packets_generated_total"
ATTACK_PACKETS = "traffic_attack_packets_total"
TRACES_BUILT = "traffic_traces_built_total"
EVALUATIONS_COMPLETED = "bench_evaluations_completed_total"
EVALUATION_SECONDS = "bench_evaluation_seconds"
EVALUATIONS_FAILED = "bench_evaluations_failed_total"
EVALUATIONS_RETRIED = "bench_evaluations_retried_total"
EVALUATIONS_RESUMED = "bench_evaluations_resumed_total"
EVALUATION_TIMEOUTS = "bench_evaluation_timeouts_total"
CACHE_CORRUPT = "engine_cache_corrupt_total"
CACHE_WRITE_ERRORS = "engine_cache_write_errors_total"
FAULTS_INJECTED = "faults_injected_total"
VECTORIZED_STEPS = "engine_vectorized_steps_total"
VECTOR_REFUSALS = "engine_vector_refusals_total"
PROGRESS_EVENTS = "bench_progress_events_total"
STREAM_STEPS = "engine_stream_steps_total"
STREAM_REFUSALS = "engine_stream_refusals_total"
ENGINE_UPTIME = "engine_uptime_seconds"
SERVE_PACKETS_INGESTED = "serve_packets_ingested_total"
SERVE_CHUNKS_ASSEMBLED = "serve_chunks_assembled_total"
SERVE_CHUNKS_SCORED = "serve_chunks_scored_total"
SERVE_CHUNKS_DROPPED = "serve_chunks_dropped_total"
SERVE_CHUNKS_QUARANTINED = "serve_chunks_quarantined_total"
SERVE_CHUNK_RETRIES = "serve_chunk_retries_total"
SERVE_INGEST_RETRIES = "serve_ingest_retries_total"
SERVE_QUEUE_DEPTH = "serve_queue_depth"
SERVE_QUEUE_BLOCKED = "serve_queue_blocked_total"
SERVE_WATCHDOG_RESTARTS = "serve_watchdog_restarts_total"
SERVE_RELOADS = "serve_reloads_total"
SERVE_CHECKPOINTS = "serve_checkpoints_written_total"
SERVE_CHECKPOINT_ERRORS = "serve_checkpoint_errors_total"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up and down (e.g. live cache entries)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Histogram:
    """Aggregate distribution of observations (count/sum/min/max)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self):
        # one lock acquisition covers every field: a snapshot taken
        # while pool threads observe() can never pair a count from one
        # observation with the sum of the next
        with self._lock:
            count = self.count
            total = self.total
            minimum = self.minimum
            maximum = self.maximum
        return {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": total / count if count else 0.0,
        }


class LabeledFamily:
    """One metric name fanned out over label-value sets.

    ``labels(...)`` is get-or-create (like the registry itself): every
    call with the same label values returns the same child metric, so
    instrumentation sites never coordinate.  Children are plain
    :class:`Counter`/:class:`Gauge`/:class:`Histogram` instances keyed
    by their label values in ``labelnames`` order.
    """

    def __init__(self, cls, name: str, help: str, labelnames) -> None:
        if not labelnames:
            raise ValueError("a labeled metric needs at least one label name")
        self.cls = cls
        self.kind = cls.kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self.cls(self.name, self.help)
                self._children[key] = child
            return child

    def children(self) -> dict[tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)

    def labelset(self, key: tuple[str, ...]) -> str:
        """The rendered ``{name="value",...}`` selector for one child."""
        pairs = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return "{" + pairs + "}"

    def snapshot(self):
        return {
            self.labelset(key): child.snapshot()
            for key, child in sorted(self.children().items())
        }


class MetricsRegistry:
    """Named metrics, created on first use and shared process-wide.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling them
    twice with the same name returns the same object, so
    instrumentation sites never need to coordinate registration.
    Asking for an existing name as a different kind -- or with
    different ``labelnames`` -- raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram | LabeledFamily] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames=None):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                if labelnames is not None:
                    metric = LabeledFamily(cls, name, help, labelnames)
                else:
                    metric = cls(name, help)
                self._metrics[name] = metric
            elif metric.kind != cls.kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            elif isinstance(metric, LabeledFamily) != (labelnames is not None):
                raise TypeError(
                    f"metric {name!r} already registered "
                    f"{'with' if isinstance(metric, LabeledFamily) else 'without'}"
                    " labels"
                )
            elif labelnames is not None and tuple(labelnames) != metric.labelnames:
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{metric.labelnames}, not {tuple(labelnames)}"
                )
            if help and not metric.help:
                metric.help = help
            return metric

    def counter(self, name: str, help: str = "", labelnames=None):
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=None):
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames=None):
        return self._get_or_create(Histogram, name, help, labelnames)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """All metric values as one plain (JSON-friendly) dict.

        Labeled families appear as one nested dict keyed by the
        rendered labelset (``'{operation="Labels"}'``).
        """
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def render_prometheus(self) -> str:
        """A Prometheus-style text exposition of every metric."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, LabeledFamily):
                for key, child in sorted(metric.children().items()):
                    lines.extend(
                        _sample_lines(name, child, metric.labelset(key))
                    )
            else:
                lines.extend(_sample_lines(name, metric, ""))
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (tests and long-lived notebook sessions)."""
        with self._lock:
            self._metrics.clear()


def _sample_lines(name: str, metric, labelset: str) -> list[str]:
    """The exposition sample lines for one (possibly labeled) metric."""
    if isinstance(metric, Histogram):
        snap = metric.snapshot()
        lines = [
            f"{name}_count{labelset} {snap['count']}",
            f"{name}_sum{labelset} {_fmt(snap['sum'])}",
        ]
        if snap["count"]:
            lines.append(f"{name}_min{labelset} {_fmt(snap['min'])}")
            lines.append(f"{name}_max{labelset} {_fmt(snap['max'])}")
        return lines
    return [f"{name}{labelset} {_fmt(metric.value)}"]


def _escape_help(text: str) -> str:
    """Prometheus HELP escaping: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


#: the process-global registry every instrumentation site uses
METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return METRICS


# ---------------------------------------------------------------------------
# process uptime
# ---------------------------------------------------------------------------

import time as _time  # noqa: E402  (kept local to the uptime helpers)

#: monotonic reference taken at import: the process "start" for uptime
_PROCESS_START = _time.perf_counter()


def observe_uptime(seconds: float | None = None) -> float:
    """Refresh the ``engine_uptime_seconds`` gauge and return it.

    With no argument the gauge reflects wall time since this module was
    imported (measured with the monotonic ``perf_counter`` -- never
    ``time.time()``).  Long-running services that keep their own
    injectable clock (``repro serve``) pass their elapsed seconds
    explicitly, so soak tests in virtual time report virtual uptime.
    """
    if seconds is None:
        seconds = _time.perf_counter() - _PROCESS_START
    gauge = METRICS.gauge(
        ENGINE_UPTIME,
        "seconds this process (or the serving daemon's clock) has been up",
    )
    gauge.set(float(seconds))
    return float(seconds)
