"""Tests for the fault-tolerant evaluation path.

Covers the guarded runner (per-cell isolation, seeded retries, the
wall-clock watchdog), the guards it shares with ``repro serve``, the
checkpoint journal and resume semantics, the failure-aware store
persistence, and the degraded heatmap/report rendering -- all driven
through the deterministic fault injector so every "crash" here is
reproducible.
"""

import json
import threading
import time

import pytest

from repro.bench import (
    BenchmarkRunner,
    CheckpointJournal,
    EvaluationResult,
    EvaluationTimeout,
    FailureRecord,
    Heatmap,
    ResultStore,
    generate_report,
    train_test_median_matrix,
)
from repro.core.errors import InputError
from repro.faults import FaultPlan, active
from repro.faults.guard import backoff_seconds, call_with_deadline
from repro.obs import METRICS
from repro.obs import metrics as metric_names

#: the deadline error of each caller: the runner abandons a cell, the
#: serve daemon a chunk attempt


def make_runner(**kwargs):
    """A guarded runner whose backoff sleeps are recorded, not slept."""
    sleeps: list[float] = []
    runner = BenchmarkRunner(sleep=sleeps.append, **kwargs)
    return runner, sleeps


def sample_result(algorithm="A14", train="F0", test="F1", **overrides):
    fields = dict(
        algorithm=algorithm, train_dataset=train, test_dataset=test,
        mode="same" if train == test else "cross",
        granularity="CONNECTION", precision=0.9, recall=0.8, f1=0.85,
        accuracy=0.95, n_train=100, n_test=40, seconds=0.5,
    )
    fields.update(overrides)
    return EvaluationResult(**fields)


def sample_failure(algorithm="A13", train="F1", test="F0", **overrides):
    fields = dict(
        algorithm=algorithm, train_dataset=train, test_dataset=test,
        mode="same" if train == test else "cross", phase="train",
        error_type="RuntimeError", message="boom", attempts=3, seconds=1.2,
    )
    fields.update(overrides)
    return FailureRecord(**fields)


class TestGuardedEvaluate:
    def test_retry_then_succeed(self):
        runner, sleeps = make_runner(retries=1)
        retried = METRICS.counter(metric_names.EVALUATIONS_RETRIED).value
        with active(FaultPlan.parse("train:#1")):
            outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert isinstance(outcome, EvaluationResult)
        assert runner.store.failures == []
        assert len(sleeps) == 1
        assert (
            METRICS.counter(metric_names.EVALUATIONS_RETRIED).value
            == retried + 1
        )

    def test_retries_exhausted_records_failure(self):
        runner, sleeps = make_runner(retries=2)
        failed = METRICS.counter(metric_names.EVALUATIONS_FAILED).value
        with active(FaultPlan.parse("train:#10")):
            outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert isinstance(outcome, FailureRecord)
        assert outcome.attempts == 3
        assert outcome.phase == "train"
        assert outcome.error_type == "FaultInjected"
        assert outcome.mode == "same"
        assert outcome.cause is not None
        assert len(sleeps) == 2  # between the three attempts
        assert runner.store.failed_cells() == {("A14", "F0", "F0")}
        assert (
            METRICS.counter(metric_names.EVALUATIONS_FAILED).value
            == failed + 1
        )

    def test_failure_phase_featurize(self):
        runner, _ = make_runner()
        with active(FaultPlan.parse("featurize:#10")):
            outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert outcome.phase == "featurize"
        assert outcome.attempts == 1

    def test_failure_phase_test(self):
        runner, _ = make_runner()
        with active(FaultPlan.parse("predict:#10")):
            outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert outcome.phase == "test"

    def test_cross_mode_recorded(self):
        runner, _ = make_runner()
        with active(FaultPlan.parse("train:#10")):
            outcome = runner.evaluate_guarded("A14", "F0", "F1")
        assert outcome.mode == "cross"
        assert outcome.pair == ("F0", "F1")

    def test_injected_exception_type_surfaces(self):
        runner, _ = make_runner()
        with active(FaultPlan.parse("train:#10:oserror")):
            outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert outcome.error_type == "OSError"

    def test_unfaithful_cell_still_raises(self):
        runner, _ = make_runner(retries=5)
        with pytest.raises(ValueError, match="unfaithful"):
            runner.evaluate_guarded("A14", "P0", "P0")
        assert runner.store.failures == []

    def test_operator_interrupt_is_not_handled(self, monkeypatch):
        runner, _ = make_runner(retries=5)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "_evaluate_attempt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            runner.evaluate_guarded("A14", "F0", "F0")
        assert runner.store.failures == []


class TestBackoff:
    CELL = ("A14", "F0", "F0")

    def test_deterministic_across_runners(self):
        schedules = []
        for _ in range(2):
            runner, sleeps = make_runner(retries=2, seed=3)
            with active(FaultPlan.parse("featurize:#10")):
                runner.evaluate_guarded(*self.CELL)
            schedules.append(sleeps)
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 2

    def test_grows_exponentially(self):
        waits = [backoff_seconds(0.1, 0, "A14/F0/F0", n) for n in (1, 2, 3)]
        assert waits[0] < waits[1] < waits[2]
        # attempt n is bounded by [0.5, 1.0) * base * 2^(n-1)
        assert 0.05 <= waits[0] < 0.1

    def test_sleeps_match_schedule(self):
        runner, sleeps = make_runner(retries=2, seed=5)
        with active(FaultPlan.parse("train:#10")):
            runner.evaluate_guarded(*self.CELL)
        assert sleeps == [
            backoff_seconds(runner.backoff_base, 5, "A14/F0/F0", n)
            for n in (1, 2)
        ]

    @pytest.mark.parametrize(
        "key, schedule",
        [
            # a matrix cell's key
            ("A14/F0/F0",
             [0.04479078507058484, 0.05195910789988645, 0.12322259252515454]),
            # the serve daemon's chunk-retry and ingest-retry keys
            ("chunk3",
             [0.03354721620819772, 0.0705089064230481, 0.17557730749451783]),
            ("ingest", [0.04320003275930463]),
        ],
    )
    def test_schedule_is_pinned(self, key, schedule):
        waits = [
            backoff_seconds(0.05, 7, key, n)
            for n in range(1, len(schedule) + 1)
        ]
        assert waits == schedule


class TestDeadline:
    """The shared deadline as the runner calls it."""

    def test_timeout_raises_distinguishable_error(self):
        release = threading.Event()
        try:
            with pytest.raises(EvaluationTimeout, match="deadline") as caught:
                call_with_deadline(
                    release.wait, 0.05, "slow", EvaluationTimeout
                )
        finally:
            release.set()
        assert caught.value.seconds == 0.05
        assert "slow" in str(caught.value)

    def test_fast_call_returns_value(self):
        assert (
            call_with_deadline(lambda: 42, 5.0, "x", EvaluationTimeout) == 42
        )

    def test_no_deadline_is_a_plain_call(self):
        for seconds in (None, 0.0):
            on = call_with_deadline(
                threading.current_thread, seconds, "x", EvaluationTimeout
            )
            assert on is threading.current_thread()

    def test_worker_error_propagates(self):
        def broken():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deadline(broken, 5.0, "x", EvaluationTimeout)

    def test_guarded_timeout_becomes_failure_record(self, monkeypatch):
        runner, _ = make_runner(cell_timeout=0.05)
        timeouts = METRICS.counter(metric_names.EVALUATION_TIMEOUTS).value

        def slow(*args, **kwargs):
            time.sleep(5)

        monkeypatch.setattr(runner, "_evaluate_cell", slow)
        outcome = runner.evaluate_guarded("A14", "F0", "F0")
        assert isinstance(outcome, FailureRecord)
        assert outcome.error_type == "EvaluationTimeout"
        assert outcome.phase == "featurize"  # the phase then running
        assert (
            METRICS.counter(metric_names.EVALUATION_TIMEOUTS).value
            == timeouts + 1
        )


class TestKeepGoingMatrix:
    ALGOS = ["A13", "A14"]
    DATASETS = ["F0", "F1"]

    def test_partial_completion_and_resume(self, tmp_path):
        journal = tmp_path / "matrix.jsonl"
        runner, _ = make_runner()
        # the first two featurize invocations fail; with no retries the
        # first two (same-dataset) cells exhaust immediately
        with active(FaultPlan.parse("featurize:#2")):
            store = runner.run_matrix(
                self.ALGOS, self.DATASETS,
                keep_going=True, checkpoint=str(journal),
            )
        assert len(store) == 6
        assert store.failed_cells() == {
            ("A13", "F0", "F0"), ("A13", "F1", "F1"),
        }
        assert len(journal.read_text().splitlines()) == 8

        # resume without retrying failures: everything skips
        completed = METRICS.counter(metric_names.EVALUATIONS_COMPLETED).value
        resumed = METRICS.counter(metric_names.EVALUATIONS_RESUMED).value
        again, _ = make_runner()
        merged = again.run_matrix(
            self.ALGOS, self.DATASETS, keep_going=True, resume=str(journal)
        )
        assert len(merged) == 6
        assert len(merged.failures) == 2
        assert (
            METRICS.counter(metric_names.EVALUATIONS_COMPLETED).value
            == completed
        )
        assert (
            METRICS.counter(metric_names.EVALUATIONS_RESUMED).value
            == resumed + 8
        )

        # resume retrying failures (injector gone): the campaign heals
        third, _ = make_runner()
        healed = third.run_matrix(
            self.ALGOS, self.DATASETS,
            keep_going=True, resume=str(journal), retry_failed=True,
        )
        assert len(healed) == 8
        assert healed.failures == []
        assert len(journal.read_text().splitlines()) == 10

    def test_exhausted_cell_reraises_without_keep_going(self, tmp_path):
        journal = tmp_path / "strict.jsonl"
        runner, _ = make_runner(retries=1)
        with active(FaultPlan.parse("featurize:#10")):
            with pytest.raises(Exception, match="injected fault"):
                runner.run_matrix(
                    self.ALGOS, self.DATASETS, checkpoint=str(journal)
                )
        # the failure was journaled before the re-raise
        state = CheckpointJournal.load(journal)
        assert len(state.failures) == 1
        assert state.results == []

    def test_default_runner_journals_a_failure_before_reraising(
        self, tmp_path
    ):
        journal = tmp_path / "default.jsonl"
        runner = BenchmarkRunner()  # retries=0, no deadline
        failed = METRICS.counter(metric_names.EVALUATIONS_FAILED).value
        with active(FaultPlan.parse("featurize:#1")):
            with pytest.raises(Exception) as caught:
                runner.run_matrix(["A14"], ["F0"], checkpoint=str(journal))
        (failure,) = runner.store.failures
        assert caught.value is failure.cause
        state = CheckpointJournal.load(journal)
        assert [record.cell for record in state.failures] == [
            ("A14", "F0", "F0")
        ]
        assert (
            METRICS.counter(metric_names.EVALUATIONS_FAILED).value
            == failed + 1
        )

    def test_default_path_checkpoints_every_cell(self, tmp_path):
        journal = tmp_path / "plain.jsonl"
        runner = BenchmarkRunner()
        runner.run_same_dataset(["A14"], ["F0"], checkpoint=str(journal))
        state = CheckpointJournal.load(journal)
        assert state.succeeded == {("A14", "F0", "F0")}


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            journal.append_outcome(sample_result())
            journal.append_outcome(sample_failure())
        state = CheckpointJournal.load(path)
        assert state.results == [sample_result()]
        assert state.failures == [sample_failure()]
        assert state.succeeded == {("A14", "F0", "F1")}
        assert state.failed == {("A13", "F1", "F0")}
        assert state.completed == state.succeeded | state.failed
        assert state.torn_lines == 0

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).append_result(sample_result())
        with path.open("a") as handle:
            handle.write('{"kind": "result", "algorithm": "A1')  # hard kill
        state = CheckpointJournal.load(path)
        assert len(state.results) == 1
        assert state.torn_lines == 1

    def test_unknown_kind_counted_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        state = CheckpointJournal.load(path)
        assert state.torn_lines == 1
        assert state.results == [] and state.failures == []

    def test_record_with_unknown_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).append_result(sample_result())
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "failure", "bogus": 1}) + "\n")
        with pytest.raises(InputError) as info:
            CheckpointJournal.load(path)
        assert str(info.value) == f"{path}:2: unknown field(s) bogus"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).append_failure(sample_failure())
        with path.open("a") as handle:
            handle.write("\n\n")
        state = CheckpointJournal.load(path)
        assert len(state.failures) == 1
        assert state.torn_lines == 0


class TestStorePersistence:
    def test_failures_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore([sample_result()], [sample_failure()])
        store.save_json(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"results", "failures"}
        loaded = ResultStore.load_json(path)
        assert loaded.results == [sample_result()]
        assert loaded.failures == [sample_failure()]
        assert loaded.failures[0].cause is None  # never serialized

    def test_no_failures_keeps_legacy_list(self, tmp_path):
        path = tmp_path / "results.json"
        ResultStore([sample_result()]).save_json(path)
        assert path.read_text().lstrip().startswith("[")
        assert len(ResultStore.load_json(path)) == 1

    def test_query_filters_failures_too(self):
        store = ResultStore(
            [sample_result()],
            [sample_failure(algorithm="A13"), sample_failure(algorithm="A10")],
        )
        sub = store.query(algorithm="A13")
        assert len(sub.failures) == 1
        assert sub.failures[0].algorithm == "A13"

    def test_failed_cell_sets(self):
        store = ResultStore([sample_result()], [sample_failure()])
        assert store.completed_cells() == {("A14", "F0", "F1")}
        assert store.failed_cells() == {("A13", "F1", "F0")}
        assert store.failed_pairs() == {("F1", "F0")}


class TestDegradedHeatmap:
    def test_failed_cells_rendered_distinctly(self):
        grid = Heatmap(
            ["r1", "r2"], ["c1", "c2"],
            [[0.5, float("nan")], [float("nan"), 1.0]],
            failed={("r1", "c2"), ("r2", "c2")},
        )
        text = grid.render()
        assert "!!" in text  # failed, no data
        assert "1.00!" in text  # failed but partially valued
        assert "--" in text  # plain missing cell, untouched
        assert "2 failed cell(s)" in text

    def test_no_failures_no_footnote(self):
        grid = Heatmap(["r"], ["c"], [[0.5]])
        assert "failed" not in grid.render()

    def test_csv_marks_failed_cells(self):
        grid = Heatmap(
            ["r1"], ["c1", "c2"], [[float("nan"), float("nan")]],
            failed={("r1", "c1")},
        )
        assert grid.to_csv().splitlines()[1] == "r1,failed,"

    def test_from_cells_drops_unknown_failed_labels(self):
        grid = Heatmap.from_cells(
            {("r1", "c1"): 0.5},
            failed={("r1", "c1"), ("zz", "c1")},
        )
        assert grid.failed == {("r1", "c1")}

    def test_median_matrix_marks_failed_pairs(self):
        store = ResultStore(
            [sample_result(train="F0", test="F0", mode="same")],
            [sample_failure(train="F1", test="F0", mode="cross")],
        )
        grid = train_test_median_matrix(store)
        # rows are test datasets, columns train datasets
        assert set(grid.row_labels) == {"F0", "F1"}
        assert ("F0", "F1") in grid.failed
        assert "!!" in grid.render()


class TestDegradedReport:
    def test_failures_section_present(self):
        store = ResultStore([sample_result()], [sample_failure()])
        text = generate_report(store)
        assert "## Failed evaluations" in text
        assert "| A13 | F1 | F0 | train | RuntimeError | 3 |" in text

    def test_failure_only_store_renders(self):
        store = ResultStore([], [sample_failure()])
        text = generate_report(store)
        assert "## Failed evaluations" in text
        assert "Headline observations" not in text

    def test_empty_store_still_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_report(ResultStore())
