"""The execution engine.

Runs a validated :class:`~repro.core.pipeline.Pipeline` against a trace,
adding the three services the paper describes:

* **Profiling** -- wall time and peak memory per operation
  (:mod:`repro.core.profiling`), so users see which operations need
  optimisation.
* **Memory optimisation** -- dead-value elimination: a value is dropped
  from the environment right after its last consumer runs.
* **Intermediate-result sharing** -- deterministic operations are cached
  across runs keyed by the chain of (operation, parameters) hashes
  rooted at the source trace's fingerprint, so e.g. the nPrint variants
  A01-A04 pay for header-bit extraction once, and every
  connection-level algorithm shares one Groupby per dataset.

Sharing a result is only sound for a pure operation -- and the engine
*proves* purity instead of assuming it: every operation's
implementation is classified by the effect analyzer
(:mod:`repro.analysis.safety`), the result cache only memoizes steps
whose op is pure or seeded-stochastic, and cache keys incorporate the
seed params of seeded ops.  Steps run one after another on the
caller's thread.

The two drivers -- :meth:`~ExecutionEngine.run` and
:meth:`StreamSession.stage` (which :meth:`StreamSession.process_chunk`
and :meth:`~ExecutionEngine.run_stream` drive) -- execute steps
through one core, :meth:`ExecutionEngine._run_step`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import PipelineError, TemplateError
from repro.core.pipeline import Pipeline, SOURCE_NAME
from repro.core.profiling import OperationProfile, ProfileReport
from repro.core.types import ValueType, check_type, infer_type_info
from repro.net.table import PacketTable
from repro.obs import METRICS, ResourceProbe, get_tracer
from repro.obs import metrics as metric_names


def fingerprint_table(table: PacketTable) -> str:
    """A content hash of a trace, used as the cache root key.

    The hash covers each column's *schema* -- dtype and shape -- and
    the table's column order, not just the raw bytes: two tables whose
    columns happen to serialize to identical bytes but carry different
    dtypes (``int32`` vs ``float32``) or a different column order are
    different traces and must never share a cache lineage.
    """
    digest = hashlib.sha1()
    hashed_bytes = 0
    order = "|".join(table.columns).encode()
    digest.update(order)
    for name in sorted(table.columns):
        column = table.columns[name]
        payload = column.tobytes()
        schema = f"{name}:{column.dtype.str}:{column.shape}".encode()
        digest.update(schema)
        digest.update(payload)
        hashed_bytes += len(schema) + len(payload)
    attacks = "|".join(table.attacks).encode()
    digest.update(attacks)
    METRICS.counter(
        metric_names.BYTES_FINGERPRINTED,
        "bytes hashed while fingerprinting source traces",
    ).inc(hashed_bytes + len(attacks))
    return digest.hexdigest()


def _params_token(params: dict) -> str:
    return json.dumps(params, sort_keys=True, default=repr)


def _operation_report(operation):
    """Effect/purity report for an operation (lazy import: the analysis
    package imports this module's sibling, pipeline)."""
    from repro.analysis.safety import operation_report

    return operation_report(operation)


def _vector_refusal(operation, inputs):
    """Why the batch path must not run for this step, or ``None``.

    The static verdict (analyzer-proven elementwise/row-parallel with
    no declaration drift) gates first; a runtime dtype check then
    refuses object-dtype inputs the AST could not see, mirroring how
    purity verdicts gate the cache.
    """
    from repro.analysis.vectorize import operation_vector_report

    report = operation_vector_report(operation)
    if report.refusal is not None:
        return report.refusal
    for value in inputs:
        info = infer_type_info(value)
        if info.dtype == "object":
            return "object-dtype-input"
    return None


def _stream_refusal(operation):
    """Why ``run_stream`` must not chunk this step, or ``None``.

    The streaming analyzer's verdict gates exactly like the purity and
    vectorization verdicts do: batch-only/opaque ops, declaration
    drift, and unbounded carried state all refuse (L041-L048); proven
    stateful verdicts additionally need a registered ``stream_fn``.
    """
    from repro.analysis.streamable import operation_stream_report

    return operation_stream_report(operation).refusal


def _carried_state_bytes(states: dict) -> int:
    """Recursive in-memory size of the carried stream state, for spans."""
    import sys

    import numpy as _np

    seen: set[int] = set()

    def size_of(obj) -> int:
        oid = id(obj)
        if oid in seen:
            return 0
        seen.add(oid)
        total = sys.getsizeof(obj, 0)
        if isinstance(obj, _np.ndarray):
            return total + int(obj.nbytes)
        if isinstance(obj, dict):
            for key, value in obj.items():
                total += size_of(key) + size_of(value)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                total += size_of(item)
        elif hasattr(obj, "__dict__"):
            total += size_of(vars(obj))
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                total += size_of(getattr(obj, slot, None))
        return total

    return size_of(states)


def _state_bytes(states) -> int:
    """Size of an iterable of per-step state dicts: a value's own
    ``state_bytes`` count where it keeps one, the recursive walk
    otherwise."""
    total = 0
    for state in states:
        for value in state.values():
            counted = getattr(value, "state_bytes", None)
            total += (
                counted if isinstance(counted, int)
                else _carried_state_bytes(value)
            )
    return total


def _begin(state: dict) -> tuple[dict, dict]:
    """One step's chunk overlay of ``state``, and the values ``begin()`` made.

    A value with the ``begin()``/``commit()`` protocol overlays itself;
    any other value is deep-copied, so the step can only write into the
    overlay either way.
    """
    begun = {
        name: value.begin()
        for name, value in state.items()
        if hasattr(value, "begin")
    }
    overlay = {
        name: begun[name] if name in begun else copy.deepcopy(value)
        for name, value in state.items()
    }
    return overlay, begun


def _commit(state: dict, overlay: dict, begun: dict) -> None:
    """Fold one step's overlay into its committed ``state``."""
    for name in [name for name in state if name not in overlay]:
        del state[name]
    for name, value in overlay.items():
        if name in begun and begun[name] is value:
            state[name].commit(value)
        else:
            state[name] = value


def _concat_stream_parts(name: str, parts: list):
    """Concatenate one output's per-chunk values into the batch shape."""
    import numpy as _np

    first = parts[0]
    if isinstance(first, _np.ndarray):
        return _np.concatenate(parts, axis=0)
    if isinstance(first, PacketTable):
        return PacketTable.concat(parts)
    raise TemplateError(
        f"cannot concatenate streamed output {name!r} of type "
        f"{type(first).__name__}"
    )


#: value types worth caching across runs (models are re-trained so
#: hyperparameter seeds behave; metrics are trivially recomputed)
_CACHEABLE = {
    ValueType.PACKETS,
    ValueType.FLOWS,
    ValueType.FEATURES,
    ValueType.LABELS,
}


class _ResultCache:
    """A bounded LRU cache shared by every engine instance.

    With ``disk_dir`` set (or the ``REPRO_DISK_CACHE`` environment
    variable), numpy-array results additionally persist to ``.npz``
    files so featurizations survive process restarts -- the expensive
    part of rebuilding the evaluation matrix.  Non-array values
    (tables, flows) stay memory-only.
    """

    def __init__(self, max_entries: int = 256, disk_dir: str | None = None) -> None:
        import os

        self.max_entries = max_entries
        self.disk_dir = disk_dir or os.environ.get("REPRO_DISK_CACHE")
        self._store: OrderedDict[str, Any] = OrderedDict()
        # one lock covers the LRU dict and the stat counters: the cache
        # is class-level, so engines on different threads share it
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        METRICS.counter(metric_names.CACHE_HITS,
                        "result-cache lookups served from memory or disk")
        METRICS.counter(metric_names.CACHE_MISSES,
                        "result-cache lookups that missed")
        METRICS.counter(metric_names.CACHE_DISK_HITS,
                        "result-cache lookups served from the disk tier")
        METRICS.counter(metric_names.CACHE_EVICTIONS,
                        "entries evicted from the result-cache LRU")

    def _disk_path(self, key: str):
        from pathlib import Path

        return Path(self.disk_dir) / f"{key}.npz"

    def _count(self, name: str, event: str, key: str) -> None:
        METRICS.counter(name).inc()
        get_tracer().event(f"cache.{event}", key=key)

    def _quarantine(self, path, key: str) -> None:
        """Rename an unreadable ``.npz`` aside so it misses exactly once.

        The corrupt file keeps its bytes (as ``<key>.npz.corrupt``) for
        post-mortem inspection instead of crashing every subsequent run
        that touches the key.
        """
        import os

        corrupt = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt)
            quarantined = str(corrupt)
        except OSError:
            # rename refused (e.g. permissions): fall back to deletion
            # so the poisoned file cannot wedge the cache forever
            try:
                path.unlink()
                quarantined = "(deleted)"
            except OSError:
                quarantined = "(left in place)"
        METRICS.counter(
            metric_names.CACHE_CORRUPT,
            "unreadable disk-cache files quarantined",
        ).inc()
        get_tracer().event("cache.corrupt", key=key, quarantined=quarantined)

    def get(self, key: str) -> tuple[bool, Any]:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                value = self._store[key]
                self._count(metric_names.CACHE_HITS, "hit", key)
                return True, value
        if self.disk_dir:
            path = self._disk_path(key)
            if path.exists():
                import zipfile

                import numpy as _np

                from repro.faults.injector import FaultInjected, maybe_inject

                try:
                    maybe_inject("cache_disk_read", key=key)
                    with _np.load(path, allow_pickle=False) as data:
                        value = data["value"]
                except (OSError, KeyError, ValueError,
                        zipfile.BadZipFile, FaultInjected):
                    # a truncated/torn .npz (or an injected disk error)
                    # must never take down the run: quarantine it and
                    # fall through to a plain miss
                    value = None
                    self._quarantine(path, key)
                if value is not None:
                    with self._lock:
                        self.hits += 1
                        self.disk_hits += 1
                    self._count(metric_names.CACHE_HITS, "hit", key)
                    self._count(metric_names.CACHE_DISK_HITS, "disk_hit", key)
                    self.put(key, value, write_disk=False)
                    return True, value
        with self._lock:
            self.misses += 1
        self._count(metric_names.CACHE_MISSES, "miss", key)
        return False, None

    def put(self, key: str, value: Any, *, write_disk: bool = True) -> None:
        evicted: list[str] = []
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                victim, _ = self._store.popitem(last=False)
                evicted.append(victim)
            METRICS.gauge(
                metric_names.CACHE_ENTRIES,
                "live entries in the shared result cache",
            ).set(len(self._store))
        for victim in evicted:
            self._count(metric_names.CACHE_EVICTIONS, "evict", victim)
        if self.disk_dir and write_disk:
            import numpy as _np

            if isinstance(value, _np.ndarray):
                self._write_disk(key, value)

    def _write_disk(self, key: str, value) -> None:
        """Atomically persist one array: temp file + ``os.replace``.

        A process killed mid-write can therefore never leave a torn
        ``.npz`` behind -- readers see either the old file, the new
        file, or nothing.  Write errors degrade to memory-only caching
        instead of aborting the run.
        """
        import os
        import tempfile
        from pathlib import Path

        import numpy as _np

        from repro.faults.injector import FaultInjected, maybe_inject

        tmp_path = None
        try:
            maybe_inject("cache_disk_write", key=key)
            Path(self.disk_dir).mkdir(parents=True, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.disk_dir, prefix=f".{key}.", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                _np.savez_compressed(handle, value=value)
            os.replace(tmp_path, self._disk_path(key))
            tmp_path = None
        except (OSError, ValueError, FaultInjected) as exc:
            METRICS.counter(
                metric_names.CACHE_WRITE_ERRORS,
                "disk-cache writes that failed (memory tier still holds"
                " the value)",
            ).inc()
            get_tracer().event(
                "cache.write_error", key=key, error=type(exc).__name__
            )
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    get_tracer().event("cache.tmp_orphan", path=tmp_path)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            METRICS.gauge(metric_names.CACHE_ENTRIES).set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


@dataclass
class StreamSnapshot:
    """A restorable copy of a stream session's carried state.

    Snapshots are deep copies: restoring one rewinds the session to the
    exact chunk boundary it was taken at, and the same snapshot can be
    restored more than once (a checkpoint pickles one; resume restores
    it).  The ``fingerprints`` map records which (operation,
    params) pair produced each step's state so a restore into a
    *different* pipeline is refused instead of silently corrupting.
    """

    chunk_index: int
    states: dict[int, dict]
    fingerprints: dict[int, str] = field(default_factory=dict)


@dataclass
class StagedChunk:
    """One chunk run against overlays of the committed state.

    :meth:`StreamSession.commit` folds ``overlays`` in; dropping the
    object instead rolls the chunk back.
    """

    chunk_index: int
    outputs: dict[str, Any]
    #: per step: (overlay state dict, the values ``begin()`` made)
    overlays: dict[int, tuple[dict, dict]]


class StreamSession:
    """An incremental handle on chunked pipeline execution.

    Where :meth:`ExecutionEngine.run_stream` owns the whole chunk loop,
    a session exposes it one chunk at a time -- the shape a
    long-running consumer (``repro serve``) needs: the caller decides
    when the next chunk arrives, and the carried per-step state lives
    here between calls.

    The robustness hooks are the point:

    * :meth:`stage` / :meth:`commit` -- one chunk is a transaction.
      Staging runs every step against per-step overlays of the
      committed state and writes nothing else; committing folds the
      overlays in and advances :attr:`chunks`.  A failed, timed-out
      or abandoned attempt commits nothing, so it can be retried (or
      given up) without poisoning the carried accumulators, and both
      steps cost O(state touched) for state with ``begin()``/``commit()``
      (:class:`~repro.core.incstats.KitsuneStreamState`);
    * :meth:`snapshot` / :meth:`restore` -- deep-copied capture of the
      committed state, for checkpoints and resume;
    * :meth:`adopt_state` -- graceful-reload handoff: a freshly built
      session (new model, re-read template) takes over the old
      session's carried state at a chunk boundary, but only for steps
      the streaming analyzer proves safe to hand over (same operation,
      same params, proven state bound).

    Nothing unproven streams: construction computes the same refusals
    :meth:`~ExecutionEngine.run_stream` enforces, and
    :meth:`raise_if_refused` raises before the first chunk.  Steps run
    through the opening engine's step core, so a chunk step is traced,
    probed and counted exactly like a batch step -- but never touches
    the shared result cache.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        pipeline: Pipeline,
        *,
        outputs: list[str] | None = None,
        source_token: str | None = None,
    ) -> None:
        from repro.analysis import analyze_pipeline

        analyze_pipeline(pipeline).raise_if_errors()
        self.engine = engine
        self.pipeline = pipeline
        self.outputs = (
            list(outputs) if outputs is not None else [pipeline.output_name]
        )
        self.source_token = source_token
        self.refusals = [
            f"{call.name}:{refusal}"
            for call in pipeline.calls
            for refusal in (_stream_refusal(call.operation),)
            if refusal is not None
        ]
        self.chunks = 0
        self._states: dict[int, dict] = {
            index: {} for index in range(len(pipeline.calls))
        }

    # ------------------------------------------------------------------

    @property
    def refusal_reason(self) -> str | None:
        return ";".join(self.refusals) if self.refusals else None

    def raise_if_refused(self, span=None) -> None:
        """Refuse visibly: span attr + counter + ``TemplateError``."""
        if not self.refusals:
            return
        reason = self.refusal_reason
        if span is not None:
            span.set("stream_refused", reason)
        METRICS.counter(
            metric_names.STREAM_REFUSALS,
            "steps refused by the streaming-safety gate",
        ).inc(len(self.refusals))
        raise TemplateError(f"pipeline is not proven streamable: {reason}")

    def _step_fingerprint(self, index: int) -> str:
        call = self.pipeline.calls[index]
        return f"{call.name}({_params_token(call.params)})"

    # ------------------------------------------------------------------

    def stage(self, chunk: PacketTable, *, parent=None) -> StagedChunk:
        """Run every step once over ``chunk`` against overlays.

        Each step gets an overlay of its committed state -- ``begin()``
        where a state value has it, a deep copy otherwise -- and writes
        only into it, so staging leaves the session unchanged and is
        safe to abandon on any thread.  :meth:`commit` applies it.
        """
        self.raise_if_refused()
        tracer = get_tracer()
        chunk_index = self.chunks
        with tracer.span(
            "stream_chunk",
            parent=parent,
            chunk=chunk_index,
            rows=len(chunk),
        ) as chunk_span:
            overlays = {
                index: _begin(state) for index, state in self._states.items()
            }
            env: dict[str, Any] = {SOURCE_NAME: chunk}
            for index, call in enumerate(self.pipeline.calls):
                self.engine._run_step(
                    index, call, env, parent=chunk_span,
                    state=overlays[index][0],
                )
            missing = [name for name in self.outputs if name not in env]
            if missing:
                raise KeyError(f"pipeline never produced outputs: {missing}")
            chunk_span.set(
                "state_bytes",
                _state_bytes(overlay for overlay, _ in overlays.values()),
            )
        return StagedChunk(
            chunk_index=chunk_index,
            outputs={name: env[name] for name in self.outputs},
            overlays=overlays,
        )

    def commit(self, staged: StagedChunk) -> None:
        """Fold a staged chunk into the carried state; advance ``chunks``.

        Refuses a chunk staged at another chunk index, so a stale
        attempt can never be applied twice or out of order.
        """
        if staged.chunk_index != self.chunks:
            raise RuntimeError(
                f"staged chunk {staged.chunk_index} is stale: the session "
                f"is at chunk {self.chunks}"
            )
        for index, (overlay, begun) in staged.overlays.items():
            _commit(self._states[index], overlay, begun)
        self.chunks += 1

    def process_chunk(self, chunk: PacketTable, *, parent=None) -> dict:
        """:meth:`stage` then :meth:`commit` ``chunk``; returns
        ``{output name: value}`` for the session's outputs.

        An exception commits nothing: the carried state stays at the
        previous chunk boundary.
        """
        staged = self.stage(chunk, parent=parent)
        self.commit(staged)
        return staged.outputs

    # ------------------------------------------------------------------

    def state_bytes(self) -> int:
        """Current in-memory size of the carried state (for health)."""
        return _state_bytes(self._states.values())

    def snapshot(self) -> StreamSnapshot:
        """A deep-copied, restorable capture of the carried state."""
        return StreamSnapshot(
            chunk_index=self.chunks,
            states=copy.deepcopy(self._states),
            fingerprints={
                index: self._step_fingerprint(index)
                for index in self._states
            },
        )

    def restore(self, snapshot: StreamSnapshot) -> None:
        """Rewind to ``snapshot``; the snapshot stays reusable."""
        expected = {
            index: self._step_fingerprint(index) for index in self._states
        }
        if snapshot.fingerprints and snapshot.fingerprints != expected:
            raise TemplateError(
                "stream snapshot does not match this pipeline "
                "(operation/params drift); rebuild the session instead "
                "of restoring across templates"
            )
        self.chunks = snapshot.chunk_index
        self._states = copy.deepcopy(snapshot.states)

    # ------------------------------------------------------------------

    def adopt_state(self, old: "StreamSession") -> dict[str, str]:
        """Carry the old session's state across a graceful reload.

        For each step of *this* session, the old session's state is
        handed over only when every rule holds:

        * the step exists at the same position with the same operation
          and params (the state ABI is the (op, params) pair);
        * the operation is stateless (nothing to carry), or the
          streaming analyzer proves a finite state bound
          (``O(1)``/``O(window)``/``O(flows)`` -- never ``O(n)``), so a
          reload can never adopt state the analyzer could not bound.

        Returns ``{step name: disposition}`` where disposition is
        ``carried``, ``stateless``, or a ``fresh:<reason>`` explaining
        why the step restarted with empty state.  Chunk numbering
        continues from the old session either way (the reload happens
        at a chunk boundary, not at packet zero).
        """
        from repro.analysis.streamable import (
            BOUND_ORDER,
            operation_stream_report,
        )

        report: dict[str, str] = {}
        old_prints = {
            index: old._step_fingerprint(index) for index in old._states
        }
        for index, call in enumerate(self.pipeline.calls):
            if call.operation.stream_fn is None:
                report[call.name] = "stateless"
                continue
            mine = self._step_fingerprint(index)
            if old_prints.get(index) != mine:
                report[call.name] = "fresh:step-changed"
                continue
            stream_report = operation_stream_report(call.operation)
            bound = stream_report.state_bound
            if bound not in BOUND_ORDER or bound == "O(n)":
                report[call.name] = f"fresh:unbounded-state[{bound}]"
                continue
            self._states[index] = copy.deepcopy(old._states[index])
            report[call.name] = "carried"
        self.chunks = old.chunks
        return report

    def close(self) -> None:
        """Release the carried per-step state.

        A long-running service that swaps sessions on reload calls
        this on the retired session so its stream accumulators (flow
        tables, damped statistics) are freed immediately instead of
        lingering until garbage collection.  The session must not
        process further chunks afterwards.
        """
        self._states.clear()


class ExecutionEngine:
    """Executes pipelines with profiling, caching and DCE."""

    shared_cache = _ResultCache()

    def __init__(
        self,
        *,
        use_cache: bool = True,
        track_memory: bool = True,
        vectorize: bool = True,
    ) -> None:
        self.use_cache = use_cache
        self.track_memory = track_memory
        # batched execution stays verdict-gated even when enabled: the
        # engine only swaps in an op's batch= body when the analyzer
        # proves it elementwise/row-parallel (see _vector_refusal)
        self.vectorize = vectorize
        self.last_report: ProfileReport | None = None

    # ------------------------------------------------------------------

    @staticmethod
    def _prologue(source: PacketTable, source_token: str | None):
        """``(token, env, keys)`` rooting one execution at ``source``."""
        token = source_token or fingerprint_table(source)
        env: dict[str, Any] = {SOURCE_NAME: source}
        keys: dict[str, str] = {SOURCE_NAME: f"src:{token}"}
        return token, env, keys

    def run(
        self,
        pipeline: Pipeline,
        source: PacketTable,
        *,
        outputs: list[str] | None = None,
        source_token: str | None = None,
    ) -> dict[str, Any]:
        """Execute the pipeline; return the requested output values.

        ``outputs`` defaults to the final step's output.  Pass a
        ``source_token`` (e.g. the dataset id) to key the shared cache
        without hashing the trace content.
        """
        # fail fast: even hand-constructed pipelines are statically
        # analyzed before anything executes (lazy import: the analysis
        # package imports this module's sibling, pipeline)
        from repro.analysis import analyze_pipeline

        analyze_pipeline(pipeline).raise_if_errors()

        wanted = outputs if outputs is not None else [pipeline.output_name]
        token, env, keys = self._prologue(source, source_token)
        last_use = pipeline.consumers()
        report = ProfileReport()

        tracer = get_tracer()
        with tracer.span(
            "run",
            source=token,
            steps=len(pipeline.calls),
            outputs=",".join(wanted),
        ) as run_span:
            run_probe = ResourceProbe(cpu="process").start()
            for index, call in enumerate(pipeline.calls):
                self._run_step(index, call, env, keys, report)
                self._collect_garbage(index, env, last_use, wanted)
            run_span.set("cached_steps",
                         sum(1 for p in report.profiles if p.cached))
            run_probe.finish(run_span)
        METRICS.counter(
            metric_names.RUNS_COMPLETED, "pipeline executions completed"
        ).inc()

        self.last_report = report
        missing = [name for name in wanted if name not in env]
        if missing:
            raise KeyError(f"pipeline never produced outputs: {missing}")
        return {name: env[name] for name in wanted}

    # ------------------------------------------------------------------

    def run_stream(
        self,
        pipeline: Pipeline,
        source: PacketTable,
        *,
        chunk_seconds: float,
        outputs: list[str] | None = None,
        source_token: str | None = None,
    ) -> dict[str, Any]:
        """Execute the pipeline chunk by chunk with carried state.

        The time-ordered trace is split into ``chunk_seconds`` windows
        (as a capture loop would deliver them) and every step runs once
        per chunk -- through its registered ``stream_fn`` with a
        persistent per-step state dict when it has one, or its plain
        body when the step is proven stateless.  Per-chunk outputs
        concatenate to the requested values, equal to :meth:`run` on
        the time-sorted trace.

        Nothing unproven streams: any step the streaming analyzer
        refuses (batch-only verdict, declaration drift, unbounded
        state, missing stream body) aborts before the first chunk, with
        the reasons recorded on the ``run_stream`` span
        (``stream_refused``) and the refusal counter.
        """
        from repro.core.streaming import chunked

        session = self.open_stream(
            pipeline, outputs=outputs, source_token=source_token
        )
        token = session.source_token or fingerprint_table(source)
        wanted = session.outputs
        tracer = get_tracer()
        with tracer.span(
            "run_stream",
            source=token,
            steps=len(pipeline.calls),
            chunk_seconds=float(chunk_seconds),
            outputs=",".join(wanted),
        ) as run_span:
            session.raise_if_refused(run_span)
            ordered = source.sort_by_time()
            collected: dict[str, list] = {name: [] for name in wanted}
            for chunk in chunked(ordered, chunk_seconds):
                out = session.process_chunk(chunk, parent=run_span)
                for name in wanted:
                    collected[name].append(out[name])
            run_span.set("chunks", session.chunks)
        if session.chunks == 0:
            raise TemplateError("run_stream needs a non-empty source")
        return {
            name: _concat_stream_parts(name, parts)
            for name, parts in collected.items()
        }

    def open_stream(
        self,
        pipeline: Pipeline,
        *,
        outputs: list[str] | None = None,
        source_token: str | None = None,
    ) -> StreamSession:
        """An incremental :class:`StreamSession` over ``pipeline``.

        The caller owns the chunk loop: feed time-ordered chunks to
        :meth:`StreamSession.process_chunk` as they arrive (or
        :meth:`~StreamSession.stage` them and :meth:`~StreamSession.commit`
        once the chunk's work succeeded), and hand state over to a new
        session on graceful reload.  :meth:`run_stream` is exactly this
        session driven by :func:`repro.core.streaming.chunked`.
        """
        return StreamSession(
            self, pipeline, outputs=outputs, source_token=source_token
        )

    # ------------------------------------------------------------------

    def _key_material(self, call, keys: dict[str, str]) -> str:
        inputs = ",".join(keys[name] for name in call.inputs)
        raw = f"{call.name}({_params_token(call.params)})<-[{inputs}]"
        seed_params = _operation_report(call.operation).seed_params
        if seed_params:
            # make the stochastic identity of the step explicit in the
            # key material: a seeded op memoized under one seed must
            # never answer for another, even for hand-built calls whose
            # params dict omits the seed default
            seeds = ",".join(
                f"{name}={call.params.get(name)!r}" for name in seed_params
            )
            raw += f"|seeds[{seeds}]"
        return raw

    def _step_key(self, call, keys: dict[str, str]) -> str:
        return hashlib.sha1(self._key_material(call, keys).encode()).hexdigest()

    def _body(self, operation, inputs, state, span):
        """The implementation one step runs, as ``body(inputs, params)``.

        A stream step with a registered ``stream_fn`` threads its
        carried ``state`` through it; otherwise the analyzer-approved
        ``batch`` body replaces ``fn`` when vectorization is on.
        """
        if state is not None and operation.stream_fn is not None:
            return lambda inputs, params: operation.stream_fn(
                inputs, params, state
            )
        if not self.vectorize or operation.batch is None:
            return operation.fn
        refusal = _vector_refusal(operation, inputs)
        if refusal is not None:
            span.set("vector_refused", refusal)
            METRICS.counter(
                metric_names.VECTOR_REFUSALS,
                "batch-declaring steps refused vectorized execution",
            ).inc()
            return operation.fn
        span.set("vectorized", True)
        METRICS.counter(
            metric_names.VECTORIZED_STEPS,
            "steps executed via the analyzer-approved batch path",
        ).inc()
        return operation.batch

    def _run_step(
        self, index, call, env, keys=None, report=None, parent=None, *,
        state=None,
    ) -> None:
        """Execute one step: the core every driver shares.

        Type-checks the inputs, picks the body (see :meth:`_body`),
        wraps failures in :class:`PipelineError`, and records a
        ``step:<name>`` span with its :class:`ResourceProbe` block and
        the step metrics.  Batch drivers pass ``keys`` and a
        ``report``: the step is keyed and, when its operation is proven
        pure or seeded, memoized in the shared cache.  Stream steps
        pass their carried ``state`` instead and never read or write
        the cache -- a chunk's value is not the trace's value.
        """
        operation = call.operation
        safety = _operation_report(operation)
        attrs = {
            "step": index,
            "operation": call.name,
            "output": call.output,
            "purity": safety.purity,
            "thread": threading.current_thread().name,
        }
        cache_typed = False
        if keys is not None:
            key = keys[call.output] = self._step_key(call, keys)
            attrs["cache_key"] = key
            cache_typed = (
                self.use_cache and operation.output_type in _CACHEABLE
            )
        cacheable = cache_typed and safety.cacheable
        with get_tracer().span(
            f"step:{call.name}", parent=parent, **attrs
        ) as span:
            # the probe covers the whole step -- cache lookups included,
            # since a lookup still spends CPU the trace should account
            probe = ResourceProbe(track_alloc=self.track_memory).start()
            if cache_typed and not safety.cacheable:
                span.set("cache_refused", safety.purity)
                METRICS.counter(
                    metric_names.CACHE_REFUSALS,
                    "cacheable-typed steps refused memoization because"
                    " their operation is not proven pure/seeded",
                ).inc()
            if cacheable:
                hit, value = self.shared_cache.get(key)
                if hit:
                    env[call.output] = value
                    span.set("cached", True)
                    span.set("wall_seconds", 0.0)
                    span.set("peak_memory_bytes", 0)
                    probe.finish(span)
                    METRICS.counter(
                        metric_names.STEPS_CACHED,
                        "steps served from the shared result cache",
                    ).inc()
                    report.add_span(span)
                    return
            inputs = [env[name] for name in call.inputs]
            for value, expected in zip(inputs, operation.input_types):
                check_type(value, expected, f"operation {call.name!r}")
            body = self._body(operation, inputs, state, span)
            started = time.perf_counter()
            try:
                result = body(inputs, call.params)
            except Exception as exc:
                probe.finish(span)
                if isinstance(exc, PipelineError):
                    raise
                raise PipelineError(call.name, index, exc) from exc
            elapsed = time.perf_counter() - started
            resources = probe.finish(span)
            env[call.output] = result
            if cacheable:
                self.shared_cache.put(key, result)
            span.set("cached", False)
            span.set("wall_seconds", elapsed)
            span.set("peak_memory_bytes",
                     int(resources.get("alloc_peak_bytes", 0)))
            METRICS.counter(
                metric_names.STEPS_EXECUTED, "operation steps executed"
            ).inc()
            if state is not None:
                METRICS.counter(
                    metric_names.STREAM_STEPS,
                    "pipeline steps executed in chunked stream mode",
                ).inc()
            METRICS.histogram(
                metric_names.STEP_SECONDS,
                "wall seconds per executed step, labeled by operation",
                labelnames=("operation",),
            ).labels(operation=call.name).observe(elapsed)
            if report is not None:
                report.add_span(span)

    @staticmethod
    def _collect_garbage(index, env, last_use, wanted) -> None:
        """Dead-value elimination after step ``index`` has run."""
        for name, last in list(last_use.items()):
            if last == index and name not in wanted and name != SOURCE_NAME:
                env.pop(name, None)
