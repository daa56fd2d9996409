"""The fault-tolerant online detection daemon behind ``repro serve``.

This is the deployment rehearsal for the paper's gateway story: a
long-running process that replays a trace at a controlled rate through
a bounded ingest queue, assembles time-window chunks, and scores them
online through the engine's :class:`~repro.core.engine.StreamSession`
-- the same proven-streamable execution ``run_stream`` uses offline,
which is what makes the daemon's output *checkable*: every chunk it
scores must be byte-equal to the offline run over the same rows.

The robustness contract, end to end:

* **Atomic scoring.**  Every chunk attempt is a transaction: it
  stages the chunk against overlays of the committed state
  (:meth:`~repro.core.engine.StreamSession.stage`, on the deadline
  worker when a deadline is set), and the control thread commits it
  (:meth:`~repro.core.engine.StreamSession.commit`) only after the
  model has scored it.  A failed, timed-out or abandoned attempt just
  drops its overlay, so retries, deadline kills and quarantine never
  leave half-updated accumulators behind.  Retries use the benchmark
  runner's seeded exponential backoff, slept on the *injected clock*
  -- virtual-time soaks replay the exact schedule.
* **Graceful degradation.**  A chunk that exhausts its retries is
  quarantined -- journaled with its exact row range, counted, skipped
  -- and the daemon keeps serving.  Because it never committed, the
  continuation equals an offline run over the surviving rows.
* **Backpressure by policy.**  The bounded queue either blocks ingest
  (packets delivered late, never lost) or drops the oldest chunk,
  journaled and counted: loss is allowed only where it is visible.
* **Watchdog.**  Progress heartbeats on the clock; a stall window with
  no progress trips a restart; the session holds only committed
  state, so there is nothing to rewind.  An optional per-attempt
  deadline bounds a single hung scoring call.
* **Graceful reload** (SIGHUP in the CLI): at the next chunk boundary
  the template is re-read and a fresh session built; carried state is
  handed over step by step under
  :meth:`~repro.core.engine.StreamSession.adopt_state` rules (same
  step, same params, analyzer-proven finite bound), so a same-template
  reload changes no scores and drops no packets.
* **Crash recovery.**  Every ``checkpoint_every`` scored chunks (and
  at shutdown) a checkpoint journals the replay offset, window origin,
  loss ledger and a pickled snapshot of the committed state
  (torn-tail-tolerant JSONL, same mechanics as the benchmark
  checkpoint); ``resume=True`` continues exactly where the last
  checkpoint left off.

The control loop is deliberately single-threaded -- ingest, score,
poll, checkpoint, in that order, every tick -- so that with a
:class:`~repro.serve.clock.ReplayClock` the whole daemon is a
deterministic function of (trace, template, config, fault plan).  Only
staging may leave that thread, and it writes nothing the loop reads
until the loop commits it.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.checkpoint import JsonlJournal, read_journal
from repro.core.engine import (
    ExecutionEngine,
    StreamSession,
    _concat_stream_parts,
)
from repro.core.pipeline import Pipeline
from repro.faults import maybe_inject
from repro.net.table import PacketTable
from repro.obs import METRICS, get_tracer, observe_uptime
from repro.obs import metrics as metric_names
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.health import ServeStatus
from repro.serve.queue import BoundedChunkQueue
from repro.serve.source import Chunk, ChunkAssembler, ReplaySource
from repro.serve.supervisor import StallError, Watchdog, call_with_deadline

#: the template a bare ``repro serve DATASET`` scores with: packet-level
#: Kitsune features (proven O(flows) carried state) plus labels
DEFAULT_TEMPLATE: list[dict] = [
    {"func": "KitsuneFeatures", "input": None, "output": "X",
     "lambdas": [1.0, 0.1]},
    {"func": "Labels", "input": None, "output": "y"},
]


@dataclass
class ServeConfig:
    """Everything that shapes one daemon run (all deterministic knobs)."""

    chunk_seconds: float = 2.0
    pps: float = 0.0  # <= 0: unpaced (replay as fast as scoring allows)
    queue_capacity: int = 8
    policy: str = "block"
    retries: int = 2
    backoff_base: float = 0.05
    stall_seconds: float = 30.0
    max_watchdog_restarts: int = 3
    chunk_deadline: float | None = None
    batch_max: int = 512
    outputs: list[str] | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = 5
    resume: bool = False
    quarantine_path: str | None = None
    status_path: str | None = None
    results_path: str | None = None
    seed: int = 0
    max_chunks: int | None = None
    collect: bool = True
    model: str = "none"  # "none" | "kitnet"
    model_cache: str | None = None
    score_output: str = "X"
    train_fraction: float = 0.3
    quantile: float = 0.98
    epochs: int = 5
    idle_sleep: float = 0.01
    max_ticks: int = 1_000_000


@dataclass
class ServeReport:
    """What one daemon run did, for callers and exit codes."""

    ok: bool = True
    reason: str = ""
    chunks_scored: int = 0
    chunks_quarantined: int = 0
    chunks_dropped: int = 0
    packets_ingested: int = 0
    packets_total: int = 0
    packets_lost: int = 0
    anomalies: int = 0
    reloads: int = 0
    watchdog_restarts: int = 0
    checkpoints_written: int = 0
    uptime_seconds: float = 0.0
    loss_ranges: list = field(default_factory=list)


class ServeDaemon:
    """The single-threaded, clock-driven serve control loop."""

    def __init__(
        self,
        table: PacketTable,
        *,
        config: ServeConfig | None = None,
        template: list[dict] | None = None,
        template_path: str | Path | None = None,
        clock: Clock | None = None,
        dataset_id: str = "",
    ) -> None:
        self.config = config or ServeConfig()
        self.clock = clock or MonotonicClock()
        self.table = table.sort_by_time()
        self.dataset_id = dataset_id
        self.template_path = Path(template_path) if template_path else None
        self._template = template
        if self._template is None and self.template_path is None:
            self._template = [dict(step) for step in DEFAULT_TEMPLATE]
        self.engine = ExecutionEngine(use_cache=False, track_memory=False)

        # lifecycle flags (flipped by signal handlers via the CLI)
        self._reload_requested = False
        self._stop_requested = False
        self._fatal = ""
        self._started_ok = False

        # loss ledger: (kind, row_start, rows) for every visibly
        # unserved row range -- quarantined or dropped
        self._losses: list[tuple[str, int, int]] = []
        self._scored = 0
        self._anomalies = 0
        self._reloads = 0
        self._checkpoints = 0
        self._consumed_rows = 0
        self._ingest_failures = 0
        self._last_error = ""
        self._started_at = 0.0
        self._model = None  # (model, threshold) when enabled
        self.results: list[dict] = []
        # per-output chunk parts: _collected[name] -> [chunk, ...]
        self._collected: dict[str, list] = {}

        self.session: StreamSession | None = None
        self.source: ReplaySource | None = None
        self.assembler: ChunkAssembler | None = None
        self.queue = BoundedChunkQueue(
            self.config.queue_capacity, policy=self.config.policy
        )
        self.watchdog = Watchdog(self.clock, self.config.stall_seconds)
        self._pending: list[Chunk] = []
        self._checkpoint_journal = (
            JsonlJournal(self.config.checkpoint_path)
            if self.config.checkpoint_path
            else None
        )
        self._quarantine_journal = (
            JsonlJournal(self.config.quarantine_path)
            if self.config.quarantine_path
            else None
        )
        self._results_journal = (
            JsonlJournal(self.config.results_path)
            if self.config.results_path
            else None
        )

    # ------------------------------------------------------------------
    # external controls (signal handlers call these)
    # ------------------------------------------------------------------

    def request_reload(self) -> None:
        """Ask for a graceful template/model reload at the next boundary."""
        self._reload_requested = True

    def request_stop(self) -> None:
        """Ask for a graceful drain-and-stop."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------

    def _read_template(self) -> list[dict]:
        if self.template_path is not None:
            from repro.core.template_io import load_template

            return load_template(self.template_path)
        return [dict(step) for step in self._template]

    def _build_session(self) -> StreamSession:
        pipeline = Pipeline.from_template(self._read_template())
        outputs = self.config.outputs
        if outputs is None and self.config.model != "none":
            # the model scores score_output: collect it beside the
            # template's final output unless outputs were chosen
            outputs = list(
                dict.fromkeys([pipeline.output_name, self.config.score_output])
            )
        session = self.engine.open_stream(pipeline, outputs=outputs)
        session.raise_if_refused()
        if (
            self.config.model != "none"
            and self.config.score_output not in session.outputs
        ):
            raise ValueError(
                f"model scoring needs output {self.config.score_output!r}; "
                f"session outputs are {session.outputs}"
            )
        return session

    def _prepare_model(self):
        """Train the detector at startup, or load it from the cache."""
        if self.config.model == "none":
            return None
        if self.config.model != "kitnet":
            raise ValueError(
                f"unknown serve model {self.config.model!r}; "
                f"choose from none, kitnet"
            )
        cache = self.config.model_cache
        if cache and Path(cache).exists():
            with open(cache, "rb") as handle:
                model, threshold = pickle.load(handle)
            get_tracer().event(
                "serve.model_loaded", cache=str(cache), threshold=threshold
            )
            return model, threshold
        from repro.ml import KitNET

        n_train = max(1, int(len(self.table) * self.config.train_fraction))
        prefix = self.table.select(np.arange(n_train))
        features = self.engine.run(
            self.session.pipeline,
            prefix,
            outputs=[self.config.score_output],
            source_token=f"serve-train:{self.dataset_id}:{n_train}",
        )[self.config.score_output]
        model = KitNET(n_epochs=self.config.epochs, seed=self.config.seed)
        model.fit(features)
        scores = model.score_samples(features)
        threshold = float(np.quantile(scores, self.config.quantile))
        get_tracer().event(
            "serve.model_trained", rows=n_train, threshold=threshold
        )
        if cache:
            Path(cache).parent.mkdir(parents=True, exist_ok=True)
            with open(cache, "wb") as handle:
                pickle.dump((model, threshold), handle)
        return model, threshold

    @staticmethod
    def load_checkpoint(path: str | Path) -> dict | None:
        """The newest serve checkpoint in a journal, torn-tail tolerant."""
        if not Path(path).exists():
            return None
        records, _ = read_journal(path)
        checkpoints = [
            r for r in records if r.get("kind") == "serve_checkpoint"
        ]
        return checkpoints[-1] if checkpoints else None

    def _startup(self) -> None:
        self.session = self._build_session()
        start_row = 0
        origin = None
        record = None
        if self.config.resume and self.config.checkpoint_path:
            record = self.load_checkpoint(self.config.checkpoint_path)
        if record is not None:
            snapshot = pickle.loads(base64.b64decode(record["snapshot"]))
            # restore refuses on template drift -- a resume into an
            # edited template must re-serve from scratch instead
            self.session.restore(snapshot)
            start_row = int(record["consumed_rows"])
            origin = record.get("window_origin")
            self._scored = int(record.get("chunks_scored", 0))
            self._anomalies = int(record.get("anomalies", 0))
            self._losses = [
                (str(k), int(s), int(n))
                for k, s, n in record.get("losses", [])
            ]
            get_tracer().event(
                "serve.resumed",
                chunk=snapshot.chunk_index,
                consumed_rows=start_row,
            )
        self._consumed_rows = start_row
        self.source = ReplaySource(
            self.table,
            pps=self.config.pps,
            clock=self.clock,
            start_row=start_row,
            batch_max=self.config.batch_max,
        )
        self.assembler = ChunkAssembler(
            self.config.chunk_seconds,
            origin=origin,
            row_counter=start_row,
        )
        self._model = self._prepare_model()
        self._collected = {name: [] for name in self.session.outputs}
        self.watchdog.beat()
        self._started_ok = True
        self._write_status("serving")

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve the whole replay; returns when it is fully accounted for."""
        tracer = get_tracer()
        self._started_at = self.clock.now()
        aborted = ""
        with tracer.span(
            "serve",
            dataset=self.dataset_id,
            chunk_seconds=float(self.config.chunk_seconds),
            pps=float(self.config.pps),
            policy=self.config.policy,
            queue_capacity=self.config.queue_capacity,
        ) as span:
            try:
                self._write_status("starting")
                try:
                    self._startup()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    # refuse to serve rather than serve wrongly: a bad
                    # template, unloadable model or drifted checkpoint
                    # is a fatal *report*, not a traceback
                    aborted = (
                        f"startup failed: {type(exc).__name__}: {exc}"
                    )
                    self._last_error = aborted
                    return self._report(aborted)
                ticks = 0
                while not self._finished():
                    if self._fatal:
                        aborted = self._fatal
                        break
                    if self._stop_requested:
                        aborted = "stop requested"
                        break
                    if self._chunk_budget_spent():
                        aborted = "max_chunks reached"
                        break
                    ticks += 1
                    if ticks > self.config.max_ticks:
                        aborted = "tick budget exhausted (wedged?)"
                        self._last_error = aborted
                        break
                    self._tick(span)
            finally:
                span.set("chunks_scored", self._scored)
                span.set("chunks_quarantined", self._quarantined_count())
                span.set("chunks_dropped", self._dropped_count())
                span.set("reloads", self._reloads)
                span.set("watchdog_restarts", self.watchdog.restarts)
                span.set("outcome", aborted or "drained")
                self._shutdown()
        return self._report(aborted)

    def _tick(self, span) -> None:
        progressed = False
        if self._reload_requested:
            self._do_reload()
            progressed = True
        # 1. drain held-back chunks into the queue first (backpressure)
        while self._pending:
            status, evicted = self.queue.try_put(self._pending[0])
            if status == "blocked":
                break
            self._pending.pop(0)
            if evicted is not None:
                self._record_loss("dropped", evicted)
        # 2. ingest while nothing is held back
        if not self._pending and not self.source.exhausted:
            batch = self._ingest(span)
            if batch is not None:
                progressed = True
                for chunk in self.assembler.push(batch):
                    self._admit(chunk)
        if (
            self.source.exhausted
            and not self._pending
            and self.assembler.pending_rows
        ):
            for chunk in self.assembler.flush():
                self._admit(chunk)
        # 3. score the oldest queued chunk
        chunk = self.queue.get()
        if chunk is not None:
            self._score_chunk(chunk, span)
            progressed = True
        # 4. stall watchdog
        if progressed:
            self.watchdog.beat()
        elif self.watchdog.poll():
            if self.watchdog.restarts >= self.config.max_watchdog_restarts:
                self._fatal = (
                    "watchdog restart budget exhausted "
                    f"({self.watchdog.restarts})"
                )
                self._last_error = self._fatal
                return
            self.watchdog.trip(idle=round(self.watchdog.stall_seconds, 3))
        # 5. let time pass when there is nothing to do right now
        if not progressed:
            self._idle_sleep()

    def _finished(self) -> bool:
        return (
            self.source is not None
            and self.source.exhausted
            and not self.assembler.pending_rows
            and not self._pending
            and len(self.queue) == 0
        )

    def _chunk_budget_spent(self) -> bool:
        if self.config.max_chunks is None:
            return False
        handled = self._scored + self._quarantined_count()
        return handled >= self.config.max_chunks

    def _idle_sleep(self) -> None:
        wait = self.config.idle_sleep
        due = self.source.next_due() if self.source is not None else None
        if due is not None:
            wait = max(due - self.clock.now(), self.config.idle_sleep)
        self.clock.sleep(wait)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def _ingest(self, parent) -> PacketTable | None:
        if self.source.due_count() == 0:
            return None
        tracer = get_tracer()
        row = self.source.cursor
        try:
            with tracer.span("ingest", parent=parent, row=row) as span:
                batch = self.source.next_batch()
                span.set("rows", 0 if batch is None else len(batch))
            self._ingest_failures = 0
            return batch
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._ingest_failures += 1
            failures = self._ingest_failures
            self._last_error = f"ingest: {type(exc).__name__}: {exc}"
            METRICS.counter(
                metric_names.SERVE_INGEST_RETRIES,
                "ingest deliveries retried after a failure",
            ).inc()
            tracer.event(
                "serve.ingest_retry",
                row=row,
                failures=failures,
                error=type(exc).__name__,
            )
            self.clock.sleep(self._backoff_seconds("ingest", failures))
            return None

    def _admit(self, chunk: Chunk) -> None:
        status, evicted = self.queue.try_put(chunk)
        if status == "blocked":
            self._pending.append(chunk)
        elif evicted is not None:
            self._record_loss("dropped", evicted)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _backoff_seconds(self, key: str, attempt: int) -> float:
        """The runner's seeded exponential backoff, on the serve clock."""
        digest = hashlib.sha256(
            f"{self.config.seed}|{key}|{attempt}".encode()
        ).digest()
        jitter = 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / 2**64)
        return self.config.backoff_base * (2 ** (attempt - 1)) * jitter

    def _score_attempt(self, chunk: Chunk, parent, attempt: int):
        """One scoring attempt; returns ``(staged chunk, anomalies)``."""
        with get_tracer().span(
            "score_chunk",
            parent=parent,
            chunk=chunk.window,
            rows=chunk.rows,
            row_start=chunk.row_start,
            attempt=attempt,
        ) as span:
            maybe_inject("score_chunk", window=chunk.window, attempt=attempt)
            staged = call_with_deadline(
                lambda: self.session.stage(chunk.table, parent=span),
                self.config.chunk_deadline,
                f"score_chunk[{chunk.window}]",
            )
            return staged, self._apply_model(staged.outputs, span)

    def _score_chunk(self, chunk: Chunk, parent) -> bool:
        tracer = get_tracer()
        attempts = self.config.retries + 1
        for attempt in range(1, attempts + 1):
            try:
                staged, anomalies = self._score_attempt(
                    chunk, parent, attempt
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # the attempt's overlay is dropped with it: no retry or
                # quarantine sees a half-updated stream
                self._last_error = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, StallError):
                    self.watchdog.trip(chunk=chunk.window)
                if attempt < attempts:
                    METRICS.counter(
                        metric_names.SERVE_CHUNK_RETRIES,
                        "chunk scoring attempts retried after a failure",
                    ).inc()
                    tracer.event(
                        "serve.score_retry",
                        chunk=chunk.window,
                        attempt=attempt,
                        error=type(exc).__name__,
                    )
                    self.clock.sleep(
                        self._backoff_seconds(
                            f"chunk{chunk.window}", attempt
                        )
                    )
                else:
                    self._quarantine(chunk, exc, attempts)
            else:
                self.session.commit(staged)
                self._finish_chunk(chunk, staged.outputs, anomalies)
                return True
        return False

    def _apply_model(self, out: dict, span) -> int:
        if self._model is None:
            return 0
        model, threshold = self._model
        scores = model.score_samples(out[self.config.score_output])
        anomalies = int((np.asarray(scores) > threshold).sum())
        span.set("anomalies", anomalies)
        return anomalies

    def _finish_chunk(self, chunk: Chunk, out: dict, anomalies: int) -> None:
        self._scored += 1
        self._anomalies += anomalies
        self._consumed_rows += chunk.rows
        METRICS.counter(
            metric_names.SERVE_CHUNKS_SCORED,
            "chunks scored by the serve daemon",
        ).inc()
        if self.config.collect:
            for name in self.session.outputs:
                self._collected[name].append(out[name])
        if self._results_journal is not None:
            self._results_journal.append({
                "kind": "chunk",
                "window": chunk.window,
                "row_start": chunk.row_start,
                "rows": chunk.rows,
                "anomalies": anomalies,
                "digest": _digest_outputs(out),
            })
        if (
            self._checkpoint_journal is not None
            and self.config.checkpoint_every > 0
            and self._scored % self.config.checkpoint_every == 0
        ):
            self._write_checkpoint()
        self._write_status("serving")

    def _quarantine(self, chunk: Chunk, exc: Exception, attempts: int) -> None:
        self._record_loss("quarantine", chunk, exc=exc, attempts=attempts)

    def _record_loss(
        self,
        kind: str,
        chunk: Chunk,
        *,
        exc: Exception | None = None,
        attempts: int = 0,
    ) -> None:
        """Account for a chunk that will never be scored -- visibly."""
        self._losses.append((kind, chunk.row_start, chunk.rows))
        self._consumed_rows += chunk.rows
        if kind == "quarantine":
            METRICS.counter(
                metric_names.SERVE_CHUNKS_QUARANTINED,
                "chunks quarantined after exhausting their retries",
            ).inc()
        if self._quarantine_journal is not None:
            record = {
                "kind": kind,
                "window": chunk.window,
                "row_start": chunk.row_start,
                "rows": chunk.rows,
                "first_ts": float(chunk.table.ts[0]),
                "last_ts": float(chunk.table.ts[-1]),
            }
            if exc is not None:
                record["error"] = type(exc).__name__
                record["message"] = str(exc)
                record["attempts"] = attempts
            self._quarantine_journal.append(record)
        get_tracer().event(
            "serve.chunk_lost",
            kind=kind,
            window=chunk.window,
            rows=chunk.rows,
            error=type(exc).__name__ if exc is not None else "",
        )
        self._write_status("serving")

    # ------------------------------------------------------------------
    # checkpointing & reload
    # ------------------------------------------------------------------

    def _write_checkpoint(self) -> None:
        # the session holds committed state only: an interrupted
        # chunk's overlay was never folded in, matching consumed_rows
        snapshot = self.session.snapshot()
        payload = {
            "kind": "serve_checkpoint",
            "chunk": snapshot.chunk_index,
            "chunks_scored": self._scored,
            "anomalies": self._anomalies,
            "consumed_rows": self._consumed_rows,
            "window_origin": self.assembler.origin,
            "losses": [list(loss) for loss in self._losses],
            "snapshot": base64.b64encode(
                pickle.dumps(snapshot)
            ).decode("ascii"),
        }
        try:
            maybe_inject("checkpoint_write", chunk=snapshot.chunk_index)
            self._checkpoint_journal.append(payload)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # degradation, not death: a failed checkpoint costs resume
            # granularity, never correctness of the live stream
            METRICS.counter(
                metric_names.SERVE_CHECKPOINT_ERRORS,
                "serve checkpoint writes that failed",
            ).inc()
            get_tracer().event(
                "serve.checkpoint_error",
                chunk=snapshot.chunk_index,
                error=type(exc).__name__,
            )
            self._last_error = f"checkpoint: {type(exc).__name__}: {exc}"
            return
        self._checkpoints += 1
        METRICS.counter(
            metric_names.SERVE_CHECKPOINTS,
            "serve checkpoints written",
        ).inc()

    def _do_reload(self) -> None:
        """Swap in a re-read template/model at a chunk boundary."""
        self._reload_requested = False
        self._write_status("reloading")
        old = self.session
        try:
            fresh = self._build_session()
            handoff = fresh.adopt_state(old)
            self.session = fresh
            self._model = self._prepare_model()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # a broken new template must not take down the old one
            self.session = old
            self._last_error = f"reload: {type(exc).__name__}: {exc}"
            get_tracer().event(
                "serve.reload_failed", error=type(exc).__name__
            )
            self._write_status("serving")
            return
        old.close()  # free the retired session's stream accumulators
        for name in self.session.outputs:
            self._collected.setdefault(name, [])
        self._reloads += 1
        METRICS.counter(
            metric_names.SERVE_RELOADS,
            "graceful template/model reloads completed",
        ).inc()
        get_tracer().event(
            "serve.reload",
            chunk=self.session.chunks,
            handoff=",".join(
                f"{name}={disposition}"
                for name, disposition in sorted(handoff.items())
            ),
        )
        self._write_status("serving")

    # ------------------------------------------------------------------
    # status & shutdown
    # ------------------------------------------------------------------

    def _quarantined_count(self) -> int:
        return sum(1 for kind, _, _ in self._losses if kind == "quarantine")

    def _dropped_count(self) -> int:
        return sum(1 for kind, _, _ in self._losses if kind == "dropped")

    def _uptime(self) -> float:
        return max(0.0, self.clock.now() - self._started_at)

    def status(self, state: str = "serving") -> ServeStatus:
        return ServeStatus(
            state=state,
            uptime_seconds=round(self._uptime(), 3),
            dataset=self.dataset_id,
            template=str(self.template_path or "(builtin)"),
            chunks_scored=self._scored,
            chunks_quarantined=self._quarantined_count(),
            chunks_dropped=self._dropped_count(),
            packets_ingested=(
                self.source.cursor if self.source is not None else 0
            ),
            packets_total=len(self.table),
            queue_depth=len(self.queue),
            replay_cursor=(
                self.source.cursor if self.source is not None else 0
            ),
            reloads=self._reloads,
            watchdog_restarts=self.watchdog.restarts,
            checkpoint_chunk=(
                self.session.chunks
                if self._checkpoints and self.session is not None
                else -1
            ),
            last_error=self._last_error,
        )

    def _write_status(self, state: str) -> None:
        observe_uptime(self._uptime())
        if self.config.status_path:
            self.status(state).write(self.config.status_path)

    def _shutdown(self) -> None:
        # no final checkpoint from a failed startup: it would bury the
        # journal's last good record under a blank-slate snapshot
        if (
            self._checkpoint_journal is not None
            and self.session is not None
            and self._started_ok
        ):
            self._write_checkpoint()
        self._write_status("stopped")
        for journal in (
            self._checkpoint_journal,
            self._quarantine_journal,
            self._results_journal,
        ):
            if journal is not None:
                journal.close()

    def _report(self, aborted: str) -> ServeReport:
        lost = sum(rows for _, _, rows in self._losses)
        return ServeReport(
            ok=not aborted or aborted in ("stop requested",
                                          "max_chunks reached"),
            reason=aborted,
            chunks_scored=self._scored,
            chunks_quarantined=self._quarantined_count(),
            chunks_dropped=self._dropped_count(),
            packets_ingested=(
                self.source.cursor if self.source is not None else 0
            ),
            packets_total=len(self.table),
            packets_lost=lost,
            anomalies=self._anomalies,
            reloads=self._reloads,
            watchdog_restarts=self.watchdog.restarts,
            checkpoints_written=self._checkpoints,
            uptime_seconds=round(self._uptime(), 3),
            loss_ranges=list(self._losses),
        )

    # ------------------------------------------------------------------
    # verification against the offline reference
    # ------------------------------------------------------------------

    def collected(self) -> dict:
        """The concatenated per-chunk outputs (collect=True)."""
        return {
            name: _concat_stream_parts(name, parts)
            for name, parts in self._collected.items()
            if parts
        }

    def surviving_table(self) -> PacketTable:
        """The replayed trace minus every journaled loss range."""
        mask = np.ones(len(self.table), dtype=bool)
        for _, start, rows in self._losses:
            mask[start:start + rows] = False
        return self.table.select(mask)

    def verify_against_offline(self) -> dict:
        """Prove zero silent loss: daemon outputs == offline run_stream.

        Because failed chunks never commit their state before
        quarantine, the daemon's carried state evolves exactly as an offline stream
        over the *surviving* rows -- so the concatenated daemon outputs
        must be byte-equal to ``run_stream`` on the surviving table.
        Returns ``{output name: bool}``; every value must be True.
        """
        surviving = self.surviving_table()
        reference = self.engine.run_stream(
            self.session.pipeline,
            surviving,
            chunk_seconds=self.config.chunk_seconds,
            outputs=self.session.outputs,
        )
        mine = self.collected()
        verdict: dict[str, bool] = {}
        for name in self.session.outputs:
            ours, theirs = mine.get(name), reference.get(name)
            if ours is None or theirs is None:
                verdict[name] = ours is None and theirs is None
            else:
                verdict[name] = bool(
                    np.array_equal(np.asarray(ours), np.asarray(theirs))
                )
        return verdict


def _digest_outputs(out: dict) -> str:
    """A stable content digest of one chunk's outputs (for journals)."""
    digest = hashlib.sha256()
    for name in sorted(out):
        value = np.ascontiguousarray(np.asarray(out[name]))
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]
