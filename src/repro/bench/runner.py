"""The evaluation runner: same- and cross-dataset, faithfully.

Implements the paper's methodology (Section 5.1): two training methods
(same dataset with a stratified split; cross dataset with disjoint train
and test traces), faithful granularity matching (packet algorithms on
packet datasets, flow-like algorithms on flow-like datasets), and
precision/recall per evaluation.  Per-attack precision breakdowns are
recorded alongside for the Figure 5 analysis.

Long campaigns additionally get a fault-tolerance layer (see
``docs/ROBUSTNESS.md``):

* **Per-cell isolation** -- ``evaluate_guarded`` converts any cell
  exception into a structured :class:`FailureRecord` (phase, exception
  type, attempt count) instead of aborting the whole matrix;
* **Retries** -- transient failures retry with seeded exponential
  backoff (the sleep is injectable, so tests run instantly);
* **Deadlines** -- a watchdog thread bounds each cell's wall clock and
  raises a distinguishable :class:`EvaluationTimeout`;
* **Checkpoint/resume** -- every finished cell is journaled to JSONL;
  ``run_matrix(..., resume=path)`` skips journaled cells and merges
  their records, composing with the engine's featurization cache.

Every matrix cell runs through ``evaluate_guarded``; with the defaults
(no retries, no timeout) that is one attempt on this thread, and
without ``keep_going`` the first failed cell is recorded, journaled and
then re-raised.  Deadline and backoff are the guards in
:mod:`repro.faults.guard` that ``repro serve`` shares.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.algorithms import ALGORITHMS, AlgorithmSpec, build_algorithm
from repro.bench.checkpoint import CheckpointJournal
from repro.bench.results import EvaluationResult, FailureRecord, ResultStore
from repro.core import ExecutionEngine, Pipeline
from repro.core.errors import EvaluationTimeout, InputError, UnknownIdError
from repro.datasets import DATASETS, load_dataset
from repro.faults.guard import backoff_seconds, call_with_deadline
from repro.faults.injector import maybe_inject
from repro.flows import Granularity, can_evaluate
from repro.ml import classification_summary
from repro.ml.model_selection import stratified_split_indices
from repro.ml.metrics import precision_score, recall_score
from repro.obs import METRICS, ResourceProbe, get_tracer
from repro.obs import metrics as metric_names


def faithful_pairs(
    algorithm_ids: list[str] | None = None,
    dataset_ids: list[str] | None = None,
) -> list[tuple[str, str]]:
    """All (algorithm, dataset) combinations the rule allows.

    Raises :class:`UnknownIdError` naming the kind and the id of the
    first requested id that is not registered.
    """
    algorithms = algorithm_ids or sorted(ALGORITHMS)
    datasets = dataset_ids or sorted(DATASETS)
    for kind, ids, registry in (
        ("algorithm", algorithms, ALGORITHMS),
        ("dataset", datasets, DATASETS),
    ):
        for item in ids:
            if item not in registry:
                raise UnknownIdError(f"unknown {kind} id: {item!r}")
    pairs = []
    for algorithm_id in algorithms:
        spec = ALGORITHMS[algorithm_id]
        for dataset_id in datasets:
            dataset = DATASETS[dataset_id]
            if can_evaluate(spec.granularity, dataset.granularity):
                pairs.append((algorithm_id, dataset_id))
    return pairs


def _units_template(spec: AlgorithmSpec) -> list[dict]:
    """The feature template extended with per-unit attack ids."""
    labels_step = next(
        step for step in spec.feature_template if step["func"] == "Labels"
    )
    units_name = labels_step["input"]
    units_name = units_name[0] if isinstance(units_name, list) else units_name
    return list(spec.feature_template) + [
        {"func": "AttackIds", "input": [units_name], "output": "attack_ids"}
    ]


class _PhaseTracker:
    """Which evaluation phase is executing right now.

    The guarded path reads ``current`` to attribute a failure (or a
    watchdog timeout, which fires on another thread) to ``featurize``,
    ``train`` or ``test``; the :meth:`phase` context manager also tags
    the in-flight exception so the attribution survives re-raising.
    """

    def __init__(self) -> None:
        self.current = "featurize"

    @contextmanager
    def phase(self, name: str):
        self.current = name
        try:
            yield
        except BaseException as exc:
            _tag_phase(exc, name)
            raise


def _tag_phase(exc: BaseException, name: str) -> None:
    if getattr(exc, "evaluation_phase", None) is None:
        try:
            exc.evaluation_phase = name
        except AttributeError:
            return  # exotic __slots__ exception: the tracker still knows


def _featurize_with_attacks(
    spec: AlgorithmSpec,
    dataset_id: str,
    engine: ExecutionEngine,
    phases: _PhaseTracker | None = None,
    parent=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    phases = phases or _PhaseTracker()
    with phases.phase("featurize"), get_tracer().span(
        "featurize", parent=parent,
        algorithm=spec.algorithm_id, dataset=dataset_id,
    ):
        maybe_inject(
            "featurize", algorithm=spec.algorithm_id, dataset=dataset_id
        )
        table = load_dataset(dataset_id)
        pipeline = Pipeline.from_template(_units_template(spec))
        out = engine.run(
            pipeline, table, outputs=["X", "y", "attack_ids"],
            source_token=dataset_id,
        )
    return out["X"], np.asarray(out["y"]), np.asarray(out["attack_ids"]), table.attacks


def _per_attack_metrics(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    attack_ids: np.ndarray,
    attack_names: list[str],
) -> dict[str, dict[str, float]]:
    """Per-attack precision/recall: for attack X, restrict the test set
    to benign units plus units of attack X (the paper's Figure 5
    construction)."""
    out: dict[str, dict[str, float]] = {}
    for attack_id, name in enumerate(attack_names):
        mask = (attack_ids == attack_id) | (y_true == 0)
        subset_true = (attack_ids[mask] == attack_id).astype(int)
        subset_pred = y_pred[mask]
        if subset_true.sum() == 0:
            continue
        out[name] = {
            "precision": float(precision_score(subset_true, subset_pred)),
            "recall": float(recall_score(subset_true, subset_pred)),
        }
    return out


class BenchmarkRunner:
    """Runs evaluations and accumulates a :class:`ResultStore`.

    One engine (and hence one shared cache) serves every evaluation, so
    each (algorithm, dataset) featurization happens exactly once per
    process no matter how many train/test combinations reuse it.

    ``retries``/``cell_timeout``/``backoff_base`` configure the guard
    every matrix cell runs under (:meth:`evaluate_guarded`); ``sleep``
    is the injectable backoff sleep (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        *,
        engine: ExecutionEngine | None = None,
        test_size: float = 0.3,
        seed: int = 0,
        retries: int = 0,
        cell_timeout: float | None = None,
        backoff_base: float = 0.05,
        sleep=None,
    ) -> None:
        self.engine = engine or ExecutionEngine(track_memory=False)
        self.test_size = test_size
        self.seed = seed
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.backoff_base = backoff_base
        self._sleep = sleep if sleep is not None else time.sleep
        self.store = ResultStore()

    # ------------------------------------------------------------------

    def _check_faithful(
        self, spec: AlgorithmSpec, train_id: str, test_id: str
    ) -> None:
        for dataset_id in dict.fromkeys((train_id, test_id)):
            if dataset_id not in DATASETS:
                raise UnknownIdError(f"unknown dataset id: {dataset_id!r}")
            dataset = DATASETS[dataset_id]
            if not can_evaluate(spec.granularity, dataset.granularity):
                raise InputError(
                    f"unfaithful evaluation: {spec.algorithm_id} "
                    f"({spec.granularity.name}) on {dataset_id} "
                    f"({dataset.granularity.name})"
                )

    def evaluate(
        self, algorithm_id: str, train_id: str, test_id: str
    ) -> EvaluationResult:
        """Evaluate one (algorithm, train dataset, test dataset) cell."""
        return self._evaluate_attempt(algorithm_id, train_id, test_id,
                                      attempt=1)

    def _evaluate_attempt(
        self, algorithm_id: str, train_id: str, test_id: str, *, attempt: int
    ) -> EvaluationResult:
        spec = build_algorithm(algorithm_id)
        self._check_faithful(spec, train_id, test_id)
        mode = "same" if train_id == test_id else "cross"
        cell = f"{algorithm_id}/{train_id}/{test_id}"
        phases = _PhaseTracker()
        started = time.perf_counter()
        with get_tracer().span(
            "evaluate",
            algorithm=algorithm_id,
            train_dataset=train_id,
            test_dataset=test_id,
            mode=mode,
        ) as span:
            # process CPU: the watchdog path runs the cell on a worker
            # thread, and model fits may fan out further
            probe = ResourceProbe(cpu="process").start()
            span.set("attempts", attempt)
            try:
                result = call_with_deadline(
                    lambda: self._evaluate_cell(
                        spec, train_id, test_id, phases=phases, parent=span
                    ),
                    self.cell_timeout, cell, EvaluationTimeout,
                )
            except BaseException as exc:
                # a watchdog timeout fires on this thread, not inside a
                # phase block: attribute it to the phase then running
                _tag_phase(exc, phases.current)
                span.set("phase", phases.current)
                timed_out = isinstance(exc, EvaluationTimeout)
                if timed_out:
                    METRICS.counter(
                        metric_names.EVALUATION_TIMEOUTS,
                        "evaluation cells abandoned at their wall-clock"
                        " deadline",
                    ).inc()
                span.set("outcome", "timeout" if timed_out else "error")
                probe.finish(span)
                raise
            span.set("outcome", "ok")
            span.set("precision", result["precision"])
            span.set("recall", result["recall"])
            span.set("f1", result["f1"])
            probe.finish(span)
        elapsed = time.perf_counter() - started
        METRICS.counter(
            metric_names.EVALUATIONS_COMPLETED,
            "(algorithm, train, test) evaluations completed",
        ).inc()
        METRICS.histogram(
            metric_names.EVALUATION_SECONDS, "wall seconds per evaluation"
        ).observe(elapsed)
        record = EvaluationResult(seconds=round(elapsed, 4), **result)
        self.store.add(record)
        return record

    # ------------------------------------------------------------------
    # guarded (fault-tolerant) evaluation
    # ------------------------------------------------------------------

    def evaluate_guarded(
        self, algorithm_id: str, train_id: str, test_id: str
    ) -> EvaluationResult | FailureRecord:
        """Per-cell isolation: never raises for a cell failure.

        Attempts the cell up to ``retries + 1`` times (seeded backoff
        between attempts); on exhaustion, records and returns a
        :class:`FailureRecord` -- with the last live exception on its
        ``cause`` -- instead of propagating.  Unfaithful cells still
        raise ``ValueError`` eagerly: that is a caller bug, not a cell
        failure.
        """
        spec = build_algorithm(algorithm_id)
        self._check_faithful(spec, train_id, test_id)
        cell = (algorithm_id, train_id, test_id)
        attempts = self.retries + 1
        started = time.perf_counter()
        last: Exception | None = None
        for attempt in range(1, attempts + 1):
            try:
                return self._evaluate_attempt(
                    algorithm_id, train_id, test_id, attempt=attempt
                )
            except (KeyboardInterrupt, SystemExit):
                raise  # operator interrupts are never "handled"
            except Exception as exc:
                last = exc
                if attempt < attempts:
                    METRICS.counter(
                        metric_names.EVALUATIONS_RETRIED,
                        "evaluation attempts retried after a failure",
                    ).inc()
                    get_tracer().event(
                        "evaluate.retry",
                        cell="/".join(cell), attempt=attempt,
                        error=type(exc).__name__,
                    )
                    self._sleep(backoff_seconds(
                        self.backoff_base, self.seed, "/".join(cell), attempt
                    ))
        failure = FailureRecord(
            algorithm=algorithm_id,
            train_dataset=train_id,
            test_dataset=test_id,
            mode="same" if train_id == test_id else "cross",
            phase=getattr(last, "evaluation_phase", None) or "featurize",
            error_type=type(last).__name__,
            message=str(last),
            attempts=attempts,
            seconds=round(time.perf_counter() - started, 4),
            cause=last,
        )
        self.store.add_failure(failure)
        METRICS.counter(
            metric_names.EVALUATIONS_FAILED,
            "evaluation cells that exhausted their retries",
        ).inc()
        get_tracer().event(
            "evaluate.failed",
            cell="/".join(cell), phase=failure.phase,
            error=failure.error_type, attempts=attempts,
        )
        return failure

    # ------------------------------------------------------------------

    def _evaluate_cell(
        self,
        spec: AlgorithmSpec,
        train_id: str,
        test_id: str,
        *,
        phases: _PhaseTracker,
        parent,
    ) -> dict:
        """Train and test one cell: a stratified split of one dataset,
        or train on one dataset and test on another."""
        X, y, attack_ids, attack_names = _featurize_with_attacks(
            spec, train_id, self.engine, phases=phases, parent=parent
        )
        if train_id == test_id:
            idx_train, idx_test = stratified_split_indices(
                y, test_size=self.test_size, seed=self.seed
            )
            X_train, X_test = X[idx_train], X[idx_test]
            y_train, y_test = y[idx_train], y[idx_test]
            attack_ids = attack_ids[idx_test]
        else:
            X_train, y_train = X, y
            X_test, y_test, attack_ids, attack_names = _featurize_with_attacks(
                spec, test_id, self.engine, phases=phases, parent=parent
            )
        tracer = get_tracer()
        model = spec.build_model()
        with phases.phase("train"), tracer.span(
            "train", parent=parent, samples=len(y_train)
        ):
            maybe_inject("train", algorithm=spec.algorithm_id,
                         dataset=train_id)
            model.fit(X_train, y_train)
        with phases.phase("test"), tracer.span(
            "test", parent=parent, samples=len(y_test)
        ):
            maybe_inject("predict", algorithm=spec.algorithm_id,
                         dataset=test_id)
            predictions = np.asarray(model.predict(X_test))
            metrics = classification_summary(y_test, predictions)
        return {
            "algorithm": spec.algorithm_id,
            "train_dataset": train_id,
            "test_dataset": test_id,
            "mode": "same" if train_id == test_id else "cross",
            "granularity": spec.granularity.name,
            "n_train": len(y_train),
            "n_test": len(y_test),
            "per_attack": _per_attack_metrics(
                y_test, predictions, attack_ids, attack_names
            ),
            **{k: float(v) for k, v in metrics.items()},
        }

    # ------------------------------------------------------------------

    def same_dataset_cells(
        self,
        algorithm_ids: list[str] | None = None,
        dataset_ids: list[str] | None = None,
    ) -> list[tuple[str, str, str]]:
        """Same-dataset (algorithm, train, test) cells, in run order."""
        return [
            (algorithm_id, dataset_id, dataset_id)
            for algorithm_id, dataset_id in faithful_pairs(
                algorithm_ids, dataset_ids
            )
        ]

    def cross_dataset_cells(
        self,
        algorithm_ids: list[str] | None = None,
        dataset_ids: list[str] | None = None,
    ) -> list[tuple[str, str, str]]:
        """Cross-dataset cells: each algorithm on every ordered pair of
        distinct datasets it can faithfully consume, in run order."""
        pairs = faithful_pairs(algorithm_ids, dataset_ids)
        by_algorithm: dict[str, list[str]] = {}
        for algorithm_id, dataset_id in pairs:
            by_algorithm.setdefault(algorithm_id, []).append(dataset_id)
        cells = []
        for algorithm_id, datasets in by_algorithm.items():
            for train_id in datasets:
                for test_id in datasets:
                    if train_id != test_id:
                        cells.append((algorithm_id, train_id, test_id))
        return cells

    def matrix_cells(
        self,
        algorithm_ids: list[str] | None = None,
        dataset_ids: list[str] | None = None,
    ) -> list[tuple[str, str, str]]:
        """The full Section 5 matrix in run order (same, then cross)."""
        return self.same_dataset_cells(algorithm_ids, dataset_ids) + (
            self.cross_dataset_cells(algorithm_ids, dataset_ids)
        )

    def _run_cells(
        self,
        cells: list[tuple[str, str, str]],
        *,
        keep_going: bool = False,
        checkpoint: str | None = None,
        resume: str | None = None,
        retry_failed: bool = False,
        progress=None,
    ) -> ResultStore:
        """Execute ``cells`` in order with the configured tolerance.

        ``resume`` merges a journal's records and skips its cells
        (``retry_failed=True`` re-runs journaled *failures* but still
        skips successes); ``checkpoint`` journals every finished cell
        (defaulting to the resume path, so one file carries the whole
        campaign across restarts).  ``keep_going`` continues past cells
        whose retries are exhausted; otherwise the first exhausted cell
        re-raises its final exception -- after journaling it.
        ``progress`` (a :class:`~repro.bench.progress.MatrixProgress`)
        receives one event per finished cell -- including resumed skips
        and failures, so its counts always advance to the total.
        """
        if progress is not None and not progress.begun:
            progress.begin(len(cells))
        skip: set[tuple[str, str, str]] = set()
        if resume:
            state = CheckpointJournal.load(resume)
            for record in state.results:
                self.store.add(record)
            for record in state.failures:
                if not retry_failed:
                    self.store.add_failure(record)
            skip = state.succeeded if retry_failed else state.completed
            checkpoint = checkpoint or resume
        journal = CheckpointJournal(checkpoint) if checkpoint else None
        try:
            for cell in cells:
                if cell in skip:
                    METRICS.counter(
                        metric_names.EVALUATIONS_RESUMED,
                        "cells skipped because a resume journal already"
                        " recorded them",
                    ).inc()
                    get_tracer().event(
                        "evaluate.resumed", cell="/".join(cell)
                    )
                    if progress is not None:
                        progress.record(cell, "resumed")
                    continue
                outcome = self.evaluate_guarded(*cell)
                if journal is not None:
                    journal.append_outcome(outcome)
                if progress is not None:
                    progress.record(
                        cell,
                        "failed" if isinstance(outcome, FailureRecord)
                        else "ok",
                    )
                if isinstance(outcome, FailureRecord) and not keep_going:
                    if outcome.cause is not None:
                        raise outcome.cause
                    raise RuntimeError(
                        f"evaluation {'/'.join(cell)} failed: "
                        f"{outcome.message}"
                    )
        finally:
            if journal is not None:
                journal.close()
        return self.store

    def run_same_dataset(
        self,
        algorithm_ids: list[str] | None = None,
        dataset_ids: list[str] | None = None,
        **options,
    ) -> ResultStore:
        """Same-dataset evaluations for every faithful combination."""
        return self._run_cells(
            self.same_dataset_cells(algorithm_ids, dataset_ids), **options
        )

    def run_matrix(
        self,
        algorithm_ids: list[str] | None = None,
        dataset_ids: list[str] | None = None,
        *,
        keep_going: bool = False,
        checkpoint: str | None = None,
        resume: str | None = None,
        retry_failed: bool = False,
        progress=None,
    ) -> ResultStore:
        """Both evaluation modes (the full Section 5 matrix).

        Cells share featurization work through the engine's result
        cache: the first cell on a dataset computes each proven-shared
        prefix and every later consumer's lookup is a cache hit.

        ``progress`` (a :class:`~repro.bench.progress.MatrixProgress`)
        gets one event per finished cell; it is begun before the first
        cell so its cache-hit deltas cover the whole campaign.
        """
        cells = self.matrix_cells(algorithm_ids, dataset_ids)
        if progress is not None:
            progress.begin(len(cells))
        return self._run_cells(
            cells,
            keep_going=keep_going,
            checkpoint=checkpoint,
            resume=resume,
            retry_failed=retry_failed,
            progress=progress,
        )


def evaluate_same_dataset(
    algorithm, table_or_id, *, test_size: float = 0.3, seed: int = 0
) -> EvaluationResult:
    """Convenience one-shot evaluation (quickstart API).

    ``algorithm`` may be an id or an :class:`AlgorithmSpec`;
    ``table_or_id`` a dataset id from the registry.
    """
    spec = (
        algorithm
        if isinstance(algorithm, AlgorithmSpec)
        else build_algorithm(algorithm)
    )
    runner = BenchmarkRunner(test_size=test_size, seed=seed)
    if isinstance(table_or_id, str):
        return runner.evaluate(spec.algorithm_id, table_or_id, table_or_id)
    raise TypeError("pass a dataset id from repro.datasets")


def evaluate_cross_dataset(
    algorithm, train_id: str, test_id: str, *, seed: int = 0
) -> EvaluationResult:
    """Convenience one-shot cross-dataset evaluation."""
    spec = (
        algorithm
        if isinstance(algorithm, AlgorithmSpec)
        else build_algorithm(algorithm)
    )
    runner = BenchmarkRunner(seed=seed)
    return runner.evaluate(spec.algorithm_id, train_id, test_id)
