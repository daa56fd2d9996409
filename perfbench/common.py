"""Shared machinery of the benchmark: statistics, spans, patches, digests.

Nothing here imports ``repro`` at module load: ``run.py`` checks that the
checkout holds the program's source before anything imports it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: run outputs (trace files, temp captures); ignored by git
WORK = HERE / "_work"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: passes per run at least: throughput takes the median pass
MIN_PASSES = 3
#: seconds the calibration kernel takes on the reference host, close to
#: its time on a 2-vCPU Xeon VM.  Calibrated timings read as if run there.
KERNEL_REFERENCE_S = 2.5e-4
#: seconds between two samples of the host's speed
SAMPLE_INTERVAL_S = 0.05
#: untraced and traced passes of a traced run, in alternating pairs
TRACED_PAIRS = 2
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: the algorithms of the ``matrix`` workload (nPrint's A01-A04 left out)
MATRIX_ALGORITHMS = ("A00",) + tuple(f"A{i:02d}" for i in range(5, 16))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int, candidates=(99, 95, 90, 80, 75, 50)) -> int | None:
    """The highest candidate percentile leaving ``TAIL_SAMPLES`` of ``n``
    samples beyond it, or None when even the lowest does not."""
    for p in sorted(candidates, reverse=True):
        if n * (100 - p) >= TAIL_SAMPLES * 100:
            return p
    return None


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def summary(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    values = [float(v) for v in values]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def latencies_from_due(first_due: float, rate: float, chunks) -> list[float]:
    """Seconds from each chunk's last packet falling due to its scoring.

    Packet ``row`` of a replay paced at ``rate`` packets per second is due
    at ``first_due + row / rate``; ``chunks`` holds ``(last_row,
    scored_at)`` pairs on the same clock.  An open-loop daemon that falls
    behind accrues the backlog into every later chunk's latency.
    """
    return [scored - (first_due + last_row / rate) for last_row, scored in chunks]


def first_due_from_ingests(rate: float, ingests) -> float:
    """When packet 0 of a replay paced at ``rate`` fell due.

    The replay source anchors its schedule at an instant ``t0`` that no
    span records, and packet ``row`` falls due at ``t0 + (row + 1) /
    rate``.  The daemon sleeps before its first ``ingest`` span opens, so
    that span's start is late by the sleep.  Instead, every ``ingest``
    span that closed at ``closed`` had delivered rows up to ``row + rows``,
    all of them due by then: ``t0 <= closed - (row + rows) / rate``.  The
    first span, which delivers what fell due during the sleep, makes the
    bound tight to one packet interval plus the span's own length.
    ``ingests`` holds ``(closed, row, rows)`` triples.
    """
    t0 = min(closed - (row + rows) / rate for closed, row, rows in ingests)
    return t0 + 1.0 / rate


def _kernel_body() -> dict:
    counts: dict = {}
    for i in range(2000):
        key = i % 251
        counts[key] = counts.get(key, 0) + (i ^ key)
    return counts


def kernel_seconds() -> float:
    """Seconds of the calibration kernel now: the median of three runs.

    The kernel is fixed Python work that no change to the program
    touches.  On a shared host the speed of a core changes from one
    tenth of a second to the next, and over minutes, by up to half, as
    other tenants come and go; the kernel slows down with it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel_body()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


@dataclass
class Sample:
    """One timing of the kernel: the pause it made, on ``time.monotonic()``."""

    start: float
    end: float
    kernel: float


class HostSpeed:
    """Samples the host's speed while the benchmark measures.

    Inside ``with HostSpeed() as speed:`` a timer signal runs
    ``kernel_seconds()`` every ``SAMPLE_INTERVAL_S``, pausing whatever
    the process is doing.  ``seconds(start, end)`` then converts an
    interval of ``time.monotonic()`` into seconds at the reference
    host's speed: each stretch between two samples counts at the speed
    the kernel showed around it, and the pauses count not at all.  A
    workload slows down by much the same factor as the kernel beside
    it, so calibrated seconds cancel the host's drift, which no number
    of passes in one run can average out.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[Sample] = []
        self._busy = False
        self._previous = None

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        try:
            start = time.monotonic()
            kernel = kernel_seconds()
            self.samples.append(Sample(start, time.monotonic(), kernel))
        finally:
            self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _stretches(self, start: float, end: float):
        """``(seconds, kernel)`` of each unpaused stretch in the interval."""
        if not self.samples or end > self.samples[-1].end:
            self.sample()
        for before, after in zip(self.samples, self.samples[1:]):
            lo, hi = max(start, before.end), min(end, after.start)
            if hi > lo:
                yield hi - lo, (before.kernel + after.kernel) / 2

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds between two ``time.monotonic()`` readings."""
        return sum(s * KERNEL_REFERENCE_S / k for s, k in self._stretches(start, end))

    def active(self, start: float, end: float) -> float:
        """Wall seconds between the readings, less the sampler's pauses."""
        return sum(s for s, _ in self._stretches(start, end))

    def kernels(self) -> list[float]:
        return [s.kernel for s in self.samples]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# what a workload hands back to run.py
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One untraced measurement: timings, operation counts and checks."""

    #: work items (packets, cells) in one pass
    work: float = 0.0
    #: calibrated seconds of each pass (``HostSpeed.seconds``)
    pass_seconds: list[float] = field(default_factory=list)
    #: wall seconds of each pass, less the sampler's pauses
    wall_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: failed output checks, one line each
    problems: list[str] = field(default_factory=list)
    #: output digest per item (file, cell, chunk), compared with golden.json
    digests: dict[str, str] = field(default_factory=dict)
    #: workload-specific figures for the report: name -> (value, unit)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: state the traced pass reuses
    detail: dict = field(default_factory=dict)

    def add_pass(self, speed: HostSpeed, intervals) -> None:
        """Record a pass timed as ``(start, end)`` monotonic intervals."""
        self.pass_seconds.append(sum(speed.seconds(a, b) for a, b in intervals))
        self.wall_seconds.append(sum(speed.active(a, b) for a, b in intervals))

    @property
    def throughput(self) -> float:
        """Work per calibrated second of the median pass."""
        return self.work / statistics.median(self.pass_seconds)


@dataclass
class Traced:
    """The traced passes: per-layer figures plus their own checks."""

    metrics: dict[str, float]
    #: wall seconds of the fastest traced pass
    seconds: float
    #: span id of the fastest traced pass's root span
    root_id: int
    #: wall seconds of the same passes run untraced
    untraced_seconds: list[float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def traced_passes(tracer, workload: str, run_once) -> tuple[list, Traced]:
    """``TRACED_PAIRS`` pairs of ``run_once(None)`` and ``run_once(tracer)``.

    Each traced pass runs under its own root span.  Alternating the two
    keeps both under the same conditions of a shared host, so the
    difference of the fastest of each is the cost of tracing.  Returns
    the traced passes' results and a ``Traced`` naming the fastest
    traced pass, the one least slowed by other tenants: per-layer
    figures come from it.
    """
    results, untraced = [], []
    fastest = (float("inf"), 0)
    for _ in range(TRACED_PAIRS):
        t0 = time.perf_counter()
        run_once(None)
        untraced.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer.span(f"perfbench.{workload}.pass", workload=workload) as root:
            results.append(run_once(tracer))
        fastest = min(fastest, (time.perf_counter() - t0, root.span_id))
    return results, Traced({}, fastest[0], fastest[1], untraced)


def keep_measuring(started: float, seconds: float, outcome: Outcome) -> bool:
    """Whether to start another pass: ``MIN_PASSES`` at least, then
    until ``seconds`` have passed since ``started``.

    Before another pass it collects the previous passes' garbage, outside
    any timing, so that every pass starts from a like heap.
    """
    if len(outcome.pass_seconds) >= MIN_PASSES and time.perf_counter() - started >= seconds:
        return False
    gc.collect()
    return True


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class CloseStamps:
    """A tracer sink stamping chosen spans with ``time.monotonic()``.

    Spans carry a wall-clock start and a ``perf_counter`` duration; the
    serve daemon paces on ``time.monotonic()``, so latency from a due
    time needs the close instant on that clock.
    """

    def __init__(self, *names: str) -> None:
        self.names = set(names)
        self.spans: list[tuple[float, dict]] = []

    def emit(self, event: dict) -> None:
        if event.get("kind") == "span" and event.get("name") in self.names:
            self.spans.append((time.monotonic(), event))


@contextmanager
def attached(sink):
    """Attach ``sink`` to the program's global tracer for a block."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        yield sink
    finally:
        tracer.remove_sink(sink)


@contextmanager
def _no_span(name, **attributes):
    yield None


def span_fn(tracer):
    """``tracer.span``, or a no-op with the same signature when untraced."""
    return tracer.span if tracer is not None else _no_span


@contextmanager
def timed_attribute(owner, name: str, tracer, span_name: str):
    """Wrap ``owner.name`` in a span of ``tracer`` for the block.

    Lets the traced pass time a public function that the program calls
    internally (``analyze_pipeline`` inside ``ExecutionEngine.run``)
    without editing the program.  A no-op when ``tracer`` is None.
    """
    if tracer is None:
        yield
        return
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def span_seconds(events: list[dict], name: str) -> list[float]:
    """Durations of every span called ``name``."""
    return [
        e["duration_seconds"]
        for e in events
        if e.get("kind") == "span" and e.get("name") == name
    ]


# ---------------------------------------------------------------------------
# inputs, digests, provenance
# ---------------------------------------------------------------------------


def seeded_scenario(dataset_id: str, seed: int):
    """The registry scenario with ``1000 * seed`` added to its seed.

    Seed 0 is the registry's own scenario.
    """
    from repro.datasets import DATASETS

    scenario = DATASETS[dataset_id].scenario
    return dataclasses.replace(scenario, seed=scenario.seed + 1000 * seed)


def digest(*parts) -> str:
    """A short content digest of arrays, strings and numbers."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(f"{array.dtype}{array.shape}".encode())
            h.update(array.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
