"""Workload ``serve``: ``ServeDaemon`` scoring a paced replay, open loop.

Input: the first ``TRACE_SECONDS`` of P1 (110 two-second chunks, about
20,000 packets).  Each daemon runs with ``MonotonicClock``, the default
Kitsune template, outputs X and y, ``model="kitnet"`` loaded from a
model cache trained in set-up, ``policy="block"`` and the default chunk
length.  The untraced passes each run one daemon offered 20,000
packets/s, which it cannot keep up with, so the drain measures its
capacity.  The traced run runs one daemon at each rate of ``RATES``
(the light, normal and heavy profiles of SNIPPETS.md section 3) for
chunk latency, without the host-speed sampler.

Latency runs from when a chunk's last packet was due to when its
``score_chunk`` span closed; packet ``row`` is due ``row / rate`` after
packet 0, whose due time ``first_due_from_ingests`` rebuilds from the
``ingest`` spans.  Close times are stamped
with ``time.monotonic()``, the daemon's clock, by a sink on the
program's tracer.

Why this workload: it is the only one on the engine's incremental
``StreamSession`` path, with two state snapshots per chunk; ``matrix``
runs the same Kitsune operation in batch.  At 1,000 packets/s the
daemon keeps up and at 5,000 and 20,000 it falls behind, so both
regimes are covered.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.analysis
from common import (
    CloseStamps,
    HostSpeed,
    Outcome,
    Traced,
    attached,
    digest,
    first_due_from_ingests,
    keep_measuring,
    latencies_from_due,
    percentile,
    seeded_scenario,
    span_fn,
    span_seconds,
    timed_attribute,
    traced_passes,
)
from repro.core import ExecutionEngine, Pipeline
from repro.core.streaming import chunked
from repro.ml import KitNET
from repro.net.table import PacketTable
from repro.serve import MonotonicClock
from repro.serve.daemon import DEFAULT_TEMPLATE, ServeConfig, ServeDaemon, ServeReport

DATASET = "P1"
#: 110 chunks: enough for p90 with ten chunks beyond it
TRACE_SECONDS = 220.0
#: offered packets/s: the light, normal and heavy profiles
RATES = (1000, 5000, 20000)
#: the rate of the untraced passes, whose drain is the daemon's capacity
CAPACITY_RATE = 20000
#: p90 chunk latency at most this counts a rate as sustained
LATENCY_LIMIT_MS = 250.0
OUTPUTS = ["X", "y"]


@dataclass
class Replay:
    table: PacketTable
    model_cache: Path


def _config(pps: float, model_cache: Path, **extra) -> ServeConfig:
    return ServeConfig(
        pps=pps, outputs=list(OUTPUTS), model="kitnet",
        model_cache=str(model_cache), policy="block", **extra,
    )


def setup(seed: int, work: Path, tracer=None, *, trace_seconds=TRACE_SECONDS) -> Replay:
    """Generate the P1 prefix and train the daemon's KitNET into a cache."""
    span = span_fn(tracer)
    with span("traffic.generate", dataset=DATASET):
        full = seeded_scenario(DATASET, seed).generate()
    with span("net.select"):
        table = full.select(full.ts < full.ts[0] + trace_seconds)
    cache = work / "kitnet.pkl"
    cache.unlink(missing_ok=True)
    # a daemon allowed zero chunks only starts up: it opens its stream
    # session and trains the model into the cache
    with timed_attribute(KitNET, "fit", tracer, "ml.kitnet_fit"), \
            timed_attribute(repro.analysis, "analyze_pipeline", tracer,
                            "analysis.analyze_pipeline"), \
            span("serve.startup"):
        report = ServeDaemon(
            table, config=_config(0.0, cache, max_chunks=0),
            clock=MonotonicClock(), dataset_id=DATASET,
        ).run()
    if not report.ok or not cache.is_file():
        raise RuntimeError(f"serve set-up failed: {report.reason}")
    return Replay(table, cache)


@dataclass
class Served:
    """One daemon run: the daemon, its report and its stamped spans."""

    rate: float
    daemon: ServeDaemon
    report: ServeReport
    #: when packet 0 fell due, on ``time.monotonic()``
    first_due: float
    #: ``(closed at, attrs)`` of every ``score_chunk`` span
    scored: list

    @property
    def last_scored(self) -> float:
        return self.scored[-1][0]

    @property
    def drain_s(self) -> float:
        """From the first packet due to the last chunk scored."""
        return self.last_scored - self.first_due

    def latencies_ms(self) -> list[float]:
        chunks = [(a["row_start"] + a["rows"] - 1, closed) for closed, a in self.scored]
        return [1000 * s for s in latencies_from_due(self.first_due, self.rate, chunks)]

    def chunk_digests(self) -> dict[str, str]:
        """Per-chunk digest of the daemon's outputs and anomaly count."""
        collected = self.daemon.collected()
        out = {}
        for index, (_, attrs) in enumerate(self.scored):
            rows = slice(attrs["row_start"], attrs["row_start"] + attrs["rows"])
            out[f"chunk{index:04d}"] = digest(
                *(np.asarray(collected[name])[rows] for name in OUTPUTS), attrs["anomalies"]
            )
        return out


def _serve(replay: Replay, rate: float) -> Served:
    daemon = ServeDaemon(
        replay.table, config=_config(rate, replay.model_cache),
        clock=MonotonicClock(), dataset_id=DATASET,
    )
    stamps = CloseStamps("ingest", "score_chunk")
    with attached(stamps):
        report = daemon.run()
    first_due = first_due_from_ingests(rate, [
        (closed, e["attrs"]["row"], e["attrs"]["rows"])
        for closed, e in stamps.spans if e["name"] == "ingest"
    ])
    scored = [(closed, e["attrs"]) for closed, e in stamps.spans if e["name"] == "score_chunk"]
    return Served(rate, daemon, report, first_due, scored)


def _chunk_rows(table: PacketTable) -> list[tuple[int, int]]:
    """``(row_start, rows)`` of each offline chunk of the replay."""
    rows, start = [], 0
    for chunk in chunked(table, ServeConfig().chunk_seconds):
        rows.append((start, len(chunk)))
        start += len(chunk)
    return rows


def _check(served: Served, expected_rows, digests: dict) -> tuple[list[str], int]:
    """Problems with one daemon run and its failed chunks.

    Chunks quarantined or dropped failed; a daemon that stopped failed
    every chunk.  Its chunks must match the offline chunking with no
    retries, and its per-chunk outputs must equal ``digests``.
    """
    report, tag = served.report, f"{served.rate:g}/s"
    problems = []
    if report.ok:
        failed = report.chunks_quarantined + report.chunks_dropped
    else:
        failed = len(expected_rows)
        problems.append(f"{tag}: daemon stopped: {report.reason}")
    if report.packets_lost or report.packets_ingested != report.packets_total:
        problems.append(f"{tag}: {report.packets_lost} packets lost, "
                        f"{report.packets_ingested} of {report.packets_total} ingested")
    rows = [(a["row_start"], a["rows"]) for _, a in served.scored]
    if rows != expected_rows or any(a["attempt"] != 1 for _, a in served.scored):
        problems.append(f"{tag}: chunks differ from the offline chunking or needed retries")
    if served.chunk_digests() != digests:
        problems.append(f"{tag}: chunk outputs differ from the first daemon's")
    return problems, failed


def measure(replay: Replay, seconds: float, speed: HostSpeed) -> Outcome:
    """Daemons at ``CAPACITY_RATE``, one per pass; capacity is the
    packets over the drain, from the first packet due to the last chunk
    scored."""
    out = Outcome(work=len(replay.table))
    expected_rows = _chunk_rows(replay.table)
    started = time.perf_counter()
    while keep_measuring(started, seconds, out):
        served = _serve(replay, CAPACITY_RATE)
        out.add_pass(speed, [(served.first_due, served.last_scored)])
        out.attempted += len(expected_rows)
        if not out.digests:
            out.digests = served.chunk_digests()
            # outside the timed region: served == offline, byte for byte
            verdict = served.daemon.verify_against_offline()
            if not all(verdict.values()):
                out.problems.append(f"verify_against_offline() = {verdict}")
        problems, failed = _check(served, expected_rows, out.digests)
        out.problems.extend(problems)
        out.failed += failed
    out.detail["expected_rows"] = expected_rows
    return out


def _rate_tag(rate: float) -> str:
    return f"{rate / 1000:g}k"


def _latency_metrics(latency: dict[float, list[float]]) -> dict[str, float]:
    """p50 and p90 chunk latency per rate, and the highest sustained rate."""
    metrics = {}
    p90 = {}
    for rate, values in latency.items():
        p90[rate] = percentile(values, 90)
        metrics[f"serve.latency_{_rate_tag(rate)}_p50_ms"] = percentile(values, 50)
        metrics[f"serve.latency_{_rate_tag(rate)}_p90_ms"] = p90[rate]
    metrics["serve.max_pps"] = max(
        [rate for rate in latency if p90[rate] <= LATENCY_LIMIT_MS], default=0
    )
    return metrics


def _replay(replay: Replay, tracer):
    """The daemon's per-chunk call sequence, offline and unpaced.

    Snapshot, ``process_chunk``, ``score_samples``, snapshot: what the
    daemon does for each chunk, over the same chunks.  Returns the
    per-chunk digests and the final carried-state size.
    """
    span = span_fn(tracer)
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    with span("core.open_stream"), timed_attribute(
        repro.analysis, "analyze_pipeline", tracer, "analysis.analyze_pipeline"
    ):
        session = engine.open_stream(
            Pipeline.from_template([dict(step) for step in DEFAULT_TEMPLATE]),
            outputs=list(OUTPUTS),
        )
    with span("ml.load_model"), open(replay.model_cache, "rb") as handle:
        model, threshold = pickle.load(handle)
    with span("core.chunked"):
        chunks = list(chunked(replay.table, ServeConfig().chunk_seconds))
    digests = {}
    for index, chunk in enumerate(chunks):
        with span("core.snapshot"):
            session.snapshot()
        with span("core.process_chunk", rows=len(chunk)):
            out = session.process_chunk(chunk)
        with span("ml.score_samples"):
            scores = model.score_samples(out["X"])
        anomalies = int((np.asarray(scores) > threshold).sum())
        with span("core.snapshot"):
            session.snapshot()
        digests[f"chunk{index:04d}"] = digest(
            *(np.asarray(out[name]) for name in OUTPUTS), anomalies
        )
    return digests, session.state_bytes()


def traced_pass(replay: Replay, tracer, outcome: Outcome) -> Traced:
    """One paced daemon at each rate, then the offline replay.

    These daemons run without the host-speed sampler, whose pauses
    would add to their latency.  Every daemon's and every replay's
    per-chunk outputs and anomaly counts must equal those of the
    untraced passes.
    """
    daemons = [_serve(replay, rate) for rate in RATES]
    outcome.detail["drain_s"] = next(d.drain_s for d in daemons if d.rate == CAPACITY_RATE)
    passes, result = traced_passes(tracer, "serve", lambda t: _replay(replay, t))
    expected_rows = outcome.detail["expected_rows"]
    for served in daemons:
        problems, failed = _check(served, expected_rows, outcome.digests)
        result.problems.extend(problems)
        result.attempted += len(expected_rows)
        result.failed += failed
    for digests, _ in passes:
        result.attempted += len(digests)
        for name, value in digests.items():
            if outcome.digests.get(name) != value:
                result.failed += 1
                result.problems.append(f"{name}: offline replay differs from the daemon")
    result.metrics = {
        **_latency_metrics({served.rate: served.latencies_ms() for served in daemons}),
        "core.state_bytes_final": passes[0][1],
        "serve.chunks": len(passes[0][0]),
    }
    return result


def layer_metrics(events: list[dict], traced: Traced, outcome: Outcome) -> dict[str, float]:
    process = span_seconds(events, "core.process_chunk")
    snapshots = span_seconds(events, "core.snapshot")
    scores = span_seconds(events, "ml.score_samples")
    chunks = len(process)
    sequence = sum(process) + sum(snapshots) + sum(scores)
    rows = [e["attrs"]["rows"] for e in events
            if e.get("kind") == "span" and e["name"] == "core.process_chunk"]
    return {
        "core.stream_chunk_p50_ms": 1000 * percentile(process, 50),
        "core.stream_chunk_p90_ms": 1000 * percentile(process, 90),
        "core.snapshot_p50_ms": 1000 * percentile(snapshots, 50),
        "core.snapshot_p90_ms": 1000 * percentile(snapshots, 90),
        "ml.score_p50_ms": 1000 * percentile(scores, 50),
        "serve.overhead_ms_per_chunk": 1000 * (outcome.detail["drain_s"] - sequence) / chunks,
        "serve.rows_per_chunk_p50": percentile(rows, 50),
        "ml.kitnet_train_s": sum(span_seconds(events, "ml.kitnet_fit")),
        "analysis.session_open_s": sum(span_seconds(events, "core.open_stream")),
        "traffic.generate_s": sum(span_seconds(events, "traffic.generate")),
    }
