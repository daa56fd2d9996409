"""Tests for live matrix progress (repro.bench.progress).

Event monotonicity and accounting over a real small matrix, failure
counting under the deterministic fault harness, resume accounting, the
TTY renderer's two output modes, and the campaign-scoped metric
deltas.
"""

import io

import pytest

from repro.bench import BenchmarkRunner, MatrixProgress, TtyProgressRenderer
from repro.bench.progress import format_progress
from repro.faults import FaultPlan, active


class ListSink:
    def __init__(self):
        self.events = []
        self.closed = False

    def emit(self, event):
        self.events.append(event)

    def close(self):
        self.closed = True


def run_small_matrix(progress, *, retries=0, **matrix_kwargs):
    runner = BenchmarkRunner(sleep=lambda s: None, retries=retries)
    runner.run_matrix(["A14"], ["F0", "F1"], progress=progress,
                      **matrix_kwargs)
    return runner


class TestProgressEvents:
    def test_events_advance_monotonically(self):
        sink = ListSink()
        run_small_matrix(MatrixProgress([sink]))
        events = sink.events
        assert len(events) == 4  # 2 same + 2 cross cells
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        for event in events:
            assert event["kind"] == "progress"
            assert event["total"] == 4
            assert event["done"] <= event["total"]
            assert (event["done"]
                    == event["ok"] + event["failed"] + event["resumed"])
            assert event["outcome"] == "ok"
            assert event["elapsed_seconds"] >= 0
        final = events[-1]
        assert final["done"] == final["total"] == 4
        assert final["ok"] == 4 and final["failed"] == 0

    def test_rate_and_eta_populate(self):
        sink = ListSink()
        run_small_matrix(MatrixProgress([sink]))
        final = sink.events[-1]
        assert final["cells_per_hour"] > 0
        assert final["eta_seconds"] == 0.0  # nothing left
        assert sink.events[0]["eta_seconds"] > 0

    def test_cache_hit_rate_is_campaign_scoped(self):
        # the cross cells reuse the same-dataset featurizations, so the
        # campaign must end with a nonzero in-campaign hit rate
        sink = ListSink()
        run_small_matrix(MatrixProgress([sink]))
        assert sink.events[-1]["cache_hit_rate"] > 0

    def test_failure_counts_under_the_fault_harness(self):
        sink = ListSink()
        progress = MatrixProgress([sink])
        with active(FaultPlan.parse("featurize:0.45", seed=7)):
            run_small_matrix(progress, retries=2, keep_going=True)
        events = sink.events
        final = events[-1]
        assert final["done"] == final["total"] == 4
        assert final["failed"] > 0
        assert final["ok"] + final["failed"] == 4
        assert final["retried"] > 0
        assert final["faults_injected"] > 0
        failed = [e["failed"] for e in events]
        assert failed == sorted(failed)  # failures never decrease
        assert {e["outcome"] for e in events} == {"ok", "failed"}

    def test_resumed_cells_are_accounted(self, tmp_path):
        journal = tmp_path / "cp.jsonl"
        run_small_matrix(MatrixProgress(), checkpoint=str(journal))
        sink = ListSink()
        run_small_matrix(MatrixProgress([sink]), resume=str(journal))
        final = sink.events[-1]
        assert final["done"] == 4
        assert final["resumed"] == 4
        assert all(e["outcome"] == "resumed" for e in sink.events)
        # resumed skips execute nothing, so no rate is measurable
        assert final["cells_per_hour"] is None
        assert final["eta_seconds"] is None


class TestMatrixProgressUnit:
    def test_record_rejects_unknown_outcome(self):
        progress = MatrixProgress()
        progress.begin(1)
        with pytest.raises(ValueError):
            progress.record(("A14", "F0", "F0"), "exploded")

    def test_begin_resets_counts(self):
        progress = MatrixProgress()
        progress.begin(2)
        progress.record(("A14", "F0", "F0"), "ok")
        progress.begin(3)
        assert progress.done == 0 and progress.total == 3
        assert not progress.snapshot().cells_per_hour

    def test_snapshot_before_any_lookup_has_no_hit_rate(self):
        progress = MatrixProgress()
        progress.begin(1)
        assert progress.snapshot().cache_hit_rate is None

    def test_close_closes_closeable_sinks(self):
        sink = ListSink()
        progress = MatrixProgress([sink, object()])  # bare object: no close
        progress.close()
        assert sink.closed

    def test_events_flow_to_every_sink(self):
        first, second = ListSink(), ListSink()
        progress = MatrixProgress([first])
        progress.add_sink(second)
        progress.begin(1)
        progress.record(("A14", "F0", "F0"), "ok")
        assert len(first.events) == len(second.events) == 1


class TestTtyRenderer:
    def event(self, **overrides):
        base = {
            "kind": "progress", "total": 4, "done": 1, "ok": 1,
            "failed": 0, "resumed": 0, "retried": 0,
            "faults_injected": 0, "elapsed_seconds": 1.0,
            "cells_per_hour": 3600.0, "eta_seconds": 3.0,
            "cache_hit_rate": None, "cell": "A14/F0/F0", "outcome": "ok",
        }
        base.update(overrides)
        return base

    def test_piped_output_is_line_per_event(self):
        stream = io.StringIO()
        renderer = TtyProgressRenderer(stream)
        renderer.emit(self.event())
        renderer.emit(self.event(done=2, ok=2))
        renderer.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("cells 1/4")
        assert "\r" not in stream.getvalue()

    def test_tty_output_redraws_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        renderer = TtyProgressRenderer(stream)
        renderer.emit(self.event())
        renderer.emit(self.event(done=2, ok=2))
        assert stream.getvalue().count("\r") == 2
        renderer.close()
        assert stream.getvalue().endswith("\n")

    def test_non_progress_events_ignored(self):
        stream = io.StringIO()
        TtyProgressRenderer(stream).emit({"kind": "span", "name": "x"})
        assert stream.getvalue() == ""

    def test_format_progress_line(self):
        line = format_progress(self.event(
            failed=1, retried=2, cache_hit_rate=0.5, eta_seconds=90.0
        ))
        assert "cells 1/4 (25%)" in line
        assert "failed=1" in line
        assert "retried=2" in line
        assert "cache 50%" in line
        assert "eta 1.5m" in line
