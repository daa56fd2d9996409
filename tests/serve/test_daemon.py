"""End-to-end behaviour of the serve daemon.

Every test runs the daemon on a virtual clock, which makes the whole
run -- pacing, backoff schedules, stall windows -- a deterministic
function of (trace, template, config, fault plan).  The load-bearing
assertions are byte-equality ones: whatever the daemon survives
(faults, reloads, crashes, drops), its outputs must equal an offline
``run_stream`` over the rows it actually served.
"""

import base64
import copyreg
import io
import json
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.engine import (
    ExecutionEngine,
    StreamSession,
    _carried_state_bytes,
)
from repro.core import incstats
from repro.core.incstats import KitsuneStreamState
from repro.faults import FaultPlan, FaultRule, active
from repro.ml.neural import _Network
from repro.obs import METRICS, RingBufferSink, get_tracer
from repro.obs import metrics as metric_names
from repro.serve import ReplayClock, ServeConfig, ServeDaemon

CHUNK_SECONDS = 5.0

# chunk sizes: many tiny chunks, uneven mid-size chunks, one chunk
# spanning the whole trace
CHUNK_GRID = [1.0, 7.3, 1e6]


def make_daemon(trace, tmp_path=None, **overrides) -> ServeDaemon:
    """An unpaced virtual-time daemon over the shared test trace."""
    # collect X too: the features carry the Kitsune stream state, so
    # byte-equality on X is the strong invariant (y is stateless)
    defaults = dict(
        chunk_seconds=CHUNK_SECONDS,
        pps=0.0,
        retries=2,
        backoff_base=0.05,
        seed=0,
        outputs=["X", "y"],
    )
    defaults.update(overrides)
    if tmp_path is not None:
        defaults.setdefault("quarantine_path",
                            str(tmp_path / "quarantine.jsonl"))
        defaults.setdefault("status_path", str(tmp_path / "status.json"))
    return ServeDaemon(
        trace,
        config=ServeConfig(**defaults),
        clock=ReplayClock(),
        dataset_id="serve-test",
    )


def baseline_outputs(trace) -> dict:
    """One clean daemon run's collected outputs (itself verified)."""
    daemon = make_daemon(trace)
    report = daemon.run()
    assert report.ok
    assert all(daemon.verify_against_offline().values())
    return daemon.collected()


class TestCleanRun:
    def test_scores_everything_byte_equal_to_offline(self, serve_trace):
        daemon = make_daemon(serve_trace)
        report = daemon.run()
        assert report.ok and report.reason == ""
        assert report.packets_ingested == report.packets_total
        assert report.packets_lost == 0
        assert report.chunks_scored > 1
        assert all(daemon.verify_against_offline().values())

    @pytest.mark.parametrize("chunk_seconds", CHUNK_GRID)
    def test_byte_equal_to_offline_at_any_chunk_size(
        self, serve_trace, chunk_seconds
    ):
        daemon = make_daemon(serve_trace, chunk_seconds=chunk_seconds)
        report = daemon.run()
        assert report.ok, report.reason
        assert report.packets_lost == 0
        assert all(daemon.verify_against_offline().values())

    def test_paced_run_matches_unpaced(self, serve_trace):
        paced = make_daemon(serve_trace, pps=500.0, batch_max=64)
        assert paced.run().ok
        reference = baseline_outputs(serve_trace)
        mine = paced.collected()
        for name, value in reference.items():
            assert np.array_equal(np.asarray(mine[name]),
                                  np.asarray(value)), name

    def test_status_file_lifecycle(self, serve_trace, tmp_path):
        daemon = make_daemon(serve_trace, tmp_path)
        daemon.run()
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["state"] == "stopped"
        assert status["packets_ingested"] == len(serve_trace)
        assert status["chunks_scored"] == daemon._scored

    def test_snapshots_only_per_checkpoint(
        self, serve_trace, tmp_path, monkeypatch
    ):
        snapshots = []
        copies = []
        snapshot = StreamSession.snapshot

        def counted_snapshot(session):
            snapshots.append(session.chunks)
            return snapshot(session)

        def counted_getstate(state):
            # deepcopy and pickle both read the carried state through here
            copies.append(len(state))
            return state.__dict__

        monkeypatch.setattr(StreamSession, "snapshot", counted_snapshot)
        monkeypatch.setattr(
            KitsuneStreamState, "__getstate__", counted_getstate,
            raising=False,
        )
        daemon = make_daemon(
            serve_trace,
            checkpoint_path=str(tmp_path / "checkpoint.jsonl"),
            checkpoint_every=3,
        )
        report = daemon.run()
        assert report.ok and report.chunks_scored > 6
        # every third scored chunk, plus the one written at shutdown
        assert report.checkpoints_written == report.chunks_scored // 3 + 1
        assert len(snapshots) == report.checkpoints_written
        # one deep copy into the snapshot and one pickle of it, per
        # checkpoint; scoring a chunk copies no carried state at all
        assert len(copies) == 2 * report.checkpoints_written

    def test_stop_request_drains_gracefully(self, serve_trace):
        class StopEarly(ServeDaemon):
            def _finish_chunk(self, chunk, out, anomalies):
                super()._finish_chunk(chunk, out, anomalies)
                if self._scored == 2:
                    self.request_stop()

        daemon = StopEarly(
            serve_trace,
            config=ServeConfig(chunk_seconds=CHUNK_SECONDS,
                               outputs=["X", "y"]),
            clock=ReplayClock(),
        )
        report = daemon.run()
        assert report.ok and report.reason == "stop requested"
        assert report.chunks_scored == 2


class TestChaos:
    def test_faults_retried_to_zero_loss(self, serve_trace):
        plan = FaultPlan.parse("score_chunk:0.3,ingest:0.1", seed=7)
        daemon = make_daemon(serve_trace, retries=3)
        with active(plan) as injector:
            report = daemon.run()
            fired = len(injector.fired)
        assert fired > 0, "the plan injected nothing -- test is vacuous"
        assert report.ok
        assert report.packets_lost == 0
        assert all(daemon.verify_against_offline().values())
        retried = (
            METRICS.counter(metric_names.SERVE_CHUNK_RETRIES).value
            + METRICS.counter(metric_names.SERVE_INGEST_RETRIES).value
        )
        assert retried > 0

    @pytest.mark.parametrize("chunk_seconds", CHUNK_GRID)
    def test_faults_byte_equal_at_any_chunk_size(
        self, serve_trace, chunk_seconds
    ):
        plan = FaultPlan.parse("score_chunk:0.4", seed=13)
        daemon = make_daemon(
            serve_trace, chunk_seconds=chunk_seconds, retries=4
        )
        with active(plan):
            report = daemon.run()
        assert report.ok, report.reason
        # whatever was quarantined is journaled; the rest is byte-equal
        assert all(daemon.verify_against_offline().values())

    def test_exhausted_retries_quarantine_visibly(self, serve_trace, tmp_path):
        # fail-first 8 scoring attempts at 2 attempts per chunk: the
        # first 4 chunks quarantine, everything after scores cleanly
        plan = FaultPlan(rules=(FaultRule("score_chunk", fail_first=8),))
        daemon = make_daemon(serve_trace, tmp_path, retries=1)
        with active(plan):
            report = daemon.run()
        assert report.ok  # quarantine is degradation, not death
        assert report.chunks_quarantined == 4
        assert report.packets_lost > 0
        assert report.chunks_scored + report.chunks_quarantined > 4
        # the loss is journaled row range by row range
        records = [
            json.loads(line)
            for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 4
        assert all(r["kind"] == "quarantine" for r in records)
        assert all(r["attempts"] == 2 for r in records)
        assert sum(r["rows"] for r in records) == report.packets_lost
        # and the survivors are byte-equal to an offline run over the
        # surviving rows: quarantined state updates were rolled back
        assert all(daemon.verify_against_offline().values())
        assert len(daemon.surviving_table()) == (
            len(serve_trace) - report.packets_lost
        )

    def test_quarantines_are_counted_by_error(self, serve_trace, tmp_path):
        # the counter's label is the exception type the journal records
        plan = FaultPlan(rules=(FaultRule("score_chunk", fail_first=8),))
        daemon = make_daemon(serve_trace, tmp_path, retries=1)
        with active(plan):
            report = daemon.run()
        errors = {
            json.loads(line)["error"]
            for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
            if line.strip()
        }
        assert errors == {"FaultInjected"}
        assert METRICS.snapshot()[metric_names.SERVE_CHUNKS_QUARANTINED] == {
            '{error="FaultInjected"}': report.chunks_quarantined
        }
        assert "serve_chunks_quarantined_total{error=\"FaultInjected\"} 4" in (
            METRICS.render_prometheus()
        )

    def test_drop_oldest_losses_are_visible(self, serve_trace):
        # unpaced replay assembles many chunks per tick but scores only
        # one, so a tiny drop-oldest queue must evict -- visibly
        daemon = make_daemon(
            serve_trace,
            queue_capacity=2,
            policy="drop-oldest",
            batch_max=10_000,
        )
        report = daemon.run()
        assert report.ok
        assert report.chunks_dropped > 0
        assert report.packets_lost > 0
        assert all(daemon.verify_against_offline().values())

    def test_block_policy_never_loses(self, serve_trace):
        daemon = make_daemon(
            serve_trace,
            queue_capacity=2,
            policy="block",
            batch_max=10_000,
        )
        report = daemon.run()
        assert report.ok
        assert report.chunks_dropped == 0
        assert report.packets_lost == 0
        assert METRICS.counter(metric_names.SERVE_QUEUE_BLOCKED).value > 0
        assert all(daemon.verify_against_offline().values())


class TestTransactions:
    """A chunk's state update commits on the control thread, after the
    model scored it; every failed attempt commits nothing."""

    @pytest.mark.parametrize("stale_finishes", ["before_retry", "after_retry"])
    def test_abandoned_worker_never_commits(
        self, serve_trace, monkeypatch, stale_finishes
    ):
        features = KitsuneStreamState.features
        stalled: list[threading.Thread] = []

        def slow_once(state, table):
            # the first attempt at the third chunk overruns its deadline
            if not stalled and daemon.session.chunks == 2:
                stalled.append(threading.current_thread())
                time.sleep(0.5)
            return features(state, table)

        def join_stale_worker():
            if stalled:
                stalled[0].join(timeout=10.0)
                assert not stalled[0].is_alive()

        class JoiningClock(ReplayClock):
            def sleep(self, seconds):
                if stale_finishes == "before_retry":
                    join_stale_worker()  # inside the retry's backoff
                super().sleep(seconds)

        class JoinAfterRetry(ServeDaemon):
            def _finish_chunk(self, chunk, out, anomalies):
                super()._finish_chunk(chunk, out, anomalies)
                if self._scored == 3:
                    join_stale_worker()

        monkeypatch.setattr(KitsuneStreamState, "features", slow_once)
        daemon = JoinAfterRetry(
            serve_trace,
            config=ServeConfig(
                chunk_seconds=CHUNK_SECONDS, outputs=["X", "y"],
                chunk_deadline=0.1,
            ),
            clock=JoiningClock(),
        )
        sink = RingBufferSink(capacity=None)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            report = daemon.run()
            join_stale_worker()
        finally:
            tracer.remove_sink(sink)
        monkeypatch.undo()

        assert stalled, "no attempt overran its deadline -- test is vacuous"
        assert report.ok and report.packets_lost == 0
        assert METRICS.counter(metric_names.SERVE_CHUNK_RETRIES).value >= 1
        assert daemon.session.chunks == report.chunks_scored
        spans = [e for e in sink.events() if e.get("kind") == "span"]
        scored = {
            s["span_id"]: s for s in spans
            if s["name"] == "score_chunk" and s["status"] == "ok"
        }
        committed = sorted(
            (scored[s["parent_id"]]["attrs"]["row_start"], s["attrs"]["chunk"])
            for s in spans
            if s["name"] == "stream_chunk" and s["parent_id"] in scored
        )
        assert [chunk for _, chunk in committed] == list(
            range(report.chunks_scored)
        )
        retry = next(
            s for s in scored.values() if s["attrs"]["attempt"] == 2
        )
        retry_chunk = next(
            s["attrs"]["chunk"] for s in spans
            if s["name"] == "stream_chunk"
            and s["parent_id"] == retry["span_id"]
        )
        assert retry_chunk == 2
        assert all(daemon.verify_against_offline().values())

    def test_overrun_chunk_is_quarantined_as_stall_error(
        self, serve_trace, tmp_path, monkeypatch
    ):
        features = KitsuneStreamState.features
        release = threading.Event()
        calls: list[int] = []

        def hang_first(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                release.wait()
            return features(self, *args, **kwargs)

        monkeypatch.setattr(KitsuneStreamState, "features", hang_first)
        # the deadline binds every chunk: one no healthy chunk comes near,
        # so that only the hung one overruns
        daemon = make_daemon(
            serve_trace, tmp_path, retries=0, chunk_deadline=1.0
        )
        try:
            report = daemon.run()
        finally:
            release.set()
        # the journaled error name is part of the quarantine format
        (record,) = [
            json.loads(line)
            for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert record["error"] == "StallError"
        assert record["window"] == 0
        assert report.chunks_quarantined == 1
        assert report.watchdog_restarts == 1

    def test_model_failure_after_staging_commits_nothing(self, serve_trace):
        seen = []

        class FlakyModel:
            def score_samples(self, features):
                seen.append((
                    daemon.session.chunks,
                    pickle.dumps(daemon.session._states),
                ))
                if len(seen) == 3:  # chunk 2's features are staged
                    raise RuntimeError("model fault")
                return np.zeros(len(features))

        class FlakyModelDaemon(ServeDaemon):
            def _prepare_model(self):
                return FlakyModel(), 0.5

        daemon = FlakyModelDaemon(
            serve_trace,
            config=ServeConfig(chunk_seconds=CHUNK_SECONDS,
                               outputs=["X", "y"]),
            clock=ReplayClock(),
        )
        report = daemon.run()
        n_chunks = make_daemon(serve_trace).run().chunks_scored

        assert report.ok and report.packets_lost == 0
        assert METRICS.counter(metric_names.SERVE_CHUNK_RETRIES).value == 1
        # the model scores every attempt before its commit; the failed
        # attempt at chunk 2 committed nothing for its retry to see
        assert [chunks for chunks, _ in seen] == (
            [0, 1, 2, 2] + list(range(3, n_chunks))
        )
        assert seen[2][1] == seen[3][1]
        assert daemon._scored == report.chunks_scored == n_chunks
        assert all(daemon.verify_against_offline().values())
        mine = daemon.collected()
        for name, value in baseline_outputs(serve_trace).items():
            assert np.asarray(mine[name]).tobytes() == (
                np.asarray(value).tobytes()
            ), name

    def test_state_bytes_tracks_the_walk(self, serve_trace):
        daemon = make_daemon(serve_trace)
        sink = RingBufferSink(capacity=None)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            assert daemon.run().ok
        finally:
            tracer.remove_sink(sink)
        walked = _carried_state_bytes(daemon.session._states)
        counted = daemon.session.state_bytes()
        assert abs(counted - walked) <= 0.1 * walked
        last = [
            e for e in sink.events()
            if e.get("kind") == "span" and e["name"] == "stream_chunk"
        ][-1]
        assert abs(last["attrs"]["state_bytes"] - walked) <= 0.1 * walked


class TestWatchdog:
    def test_restart_budget_exhaustion_is_fatal(self, serve_trace):
        plan = FaultPlan(rules=(FaultRule("ingest", rate=1.0),))
        daemon = make_daemon(
            serve_trace,
            stall_seconds=5.0,
            max_watchdog_restarts=2,
            backoff_base=0.5,
        )
        with active(plan):
            report = daemon.run()
        assert not report.ok
        assert "watchdog restart budget exhausted" in report.reason
        assert report.watchdog_restarts == 2
        restarts = METRICS.counter(metric_names.SERVE_WATCHDOG_RESTARTS)
        assert restarts.value == 2

    def test_recovers_when_the_fault_clears(self, serve_trace):
        # the first 3 deliveries fail; backoff + watchdog keep the
        # daemon alive until ingest heals, then everything is served
        plan = FaultPlan(rules=(FaultRule("ingest", fail_first=3),))
        daemon = make_daemon(serve_trace, stall_seconds=60.0)
        with active(plan):
            report = daemon.run()
        assert report.ok
        assert report.packets_lost == 0
        assert all(daemon.verify_against_offline().values())
        assert METRICS.counter(
            metric_names.SERVE_INGEST_RETRIES
        ).value == 3


class TestReload:
    def test_reload_at_every_chunk_boundary_changes_nothing(
        self, serve_trace
    ):
        """The SIGHUP property: a same-template swap at ANY chunk index
        drops no packets and changes no scores."""
        reference = baseline_outputs(serve_trace)
        n_chunks = make_daemon(serve_trace).run().chunks_scored

        class ReloadAt(ServeDaemon):
            reload_after = 0

            def _finish_chunk(self, chunk, out, anomalies):
                super()._finish_chunk(chunk, out, anomalies)
                if self._scored == self.reload_after:
                    self.request_reload()

        # a reload requested after chunk k swaps before chunk k+1, so
        # the interior boundaries are 1..n-1; a request after the final
        # chunk has no next boundary and must drain harmlessly instead
        for index in range(1, n_chunks + 1):
            daemon = ReloadAt(
                serve_trace,
                config=ServeConfig(chunk_seconds=CHUNK_SECONDS,
                                   outputs=["X", "y"]),
                clock=ReplayClock(),
            )
            daemon.reload_after = index
            report = daemon.run()
            assert report.ok, f"reload at chunk {index} broke the run"
            assert report.reloads == (1 if index < n_chunks else 0)
            assert report.packets_lost == 0
            mine = daemon.collected()
            for name, value in reference.items():
                assert np.array_equal(
                    np.asarray(mine[name]), np.asarray(value)
                ), f"output {name} changed after reload at chunk {index}"

    def test_broken_new_template_keeps_the_old_session(
        self, serve_trace, tmp_path
    ):
        import json as json_module

        template_path = tmp_path / "template.json"
        good = [
            {"func": "KitsuneFeatures", "input": None, "output": "X",
             "lambdas": [1.0, 0.1]},
        ]
        template_path.write_text(json_module.dumps(good))

        class BreakThenReload(ServeDaemon):
            def _finish_chunk(self, chunk, out, anomalies):
                super()._finish_chunk(chunk, out, anomalies)
                if self._scored == 2:
                    template_path.write_text("{not json")
                    self.request_reload()

        daemon = BreakThenReload(
            serve_trace,
            config=ServeConfig(chunk_seconds=CHUNK_SECONDS),
            template_path=template_path,
            clock=ReplayClock(),
        )
        report = daemon.run()
        assert report.ok
        assert report.reloads == 0  # the swap was refused...
        assert report.packets_lost == 0  # ...and the old session served on
        assert "reload:" in daemon._last_error
        assert all(daemon.verify_against_offline().values())


class OlderLayoutPickler(pickle.Pickler):
    """Writes every neural network in the older layout: one object per
    layer and no flat parameter buffer."""

    def reducer_override(self, obj):
        if isinstance(obj, _Network):
            return copyreg.__newobj__, (type(obj),), {"layers": []}
        return NotImplemented


class TestModelCache:
    def test_failed_dump_leaves_no_torn_cache(
        self, serve_trace, tmp_path, monkeypatch
    ):
        """A cache write that raises halfway leaves the path as it was
        (here: absent), so the next startup trains instead of failing
        on a torn pickle."""
        cache = tmp_path / "kitnet.pkl"
        options = dict(
            model="kitnet", epochs=1, outputs=None, max_chunks=2,
            model_cache=str(cache),
        )

        def torn_dump(obj, handle):
            handle.write(pickle.dumps(obj)[:64])
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", torn_dump)
        report = make_daemon(serve_trace, **options).run()
        assert not report.ok and "disk full" in report.reason
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        report = make_daemon(serve_trace, **options).run()
        assert report.ok
        _, threshold = pickle.loads(cache.read_bytes())
        assert threshold > 0

    @pytest.mark.parametrize("damage", ["truncated", "older layout"])
    def test_unusable_cache_is_retrained(self, serve_trace, tmp_path, damage):
        """A torn cache, or one an older model layout wrote, is retrained
        and rewritten; the served run equals one that never had it."""
        cache = tmp_path / "kitnet.pkl"
        options = dict(model="kitnet", epochs=1)
        expected = make_daemon(serve_trace, **options).run()
        assert expected.ok
        assert make_daemon(serve_trace, model_cache=str(cache),
                           **options).run().ok
        good = cache.read_bytes()
        if damage == "truncated":
            cache.write_bytes(good[: len(good) // 2])
        else:
            buffer = io.BytesIO()
            OlderLayoutPickler(buffer).dump(pickle.loads(good))
            cache.write_bytes(buffer.getvalue())

        daemon = make_daemon(serve_trace, model_cache=str(cache), **options)
        sink = RingBufferSink(capacity=None)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            report = daemon.run()
        finally:
            tracer.remove_sink(sink)
        assert report.ok and report.chunks_quarantined == 0
        assert report.anomalies == expected.anomalies
        assert all(daemon.verify_against_offline().values())
        (retrained,) = [
            e for e in sink.events() if e["name"] == "serve.model_retrained"
        ]
        expected_reason = (
            "UnpicklingError" if damage == "truncated" else "StateLayoutError"
        )
        assert retrained["attrs"]["reason"].startswith(expected_reason)
        assert cache.read_bytes() == good


class TestCrashRecovery:
    def test_resume_continues_byte_equal(self, serve_trace, tmp_path):
        reference = baseline_outputs(serve_trace)
        checkpoint = str(tmp_path / "checkpoint.jsonl")

        phase1 = make_daemon(
            serve_trace,
            checkpoint_path=checkpoint,
            checkpoint_every=1,
            max_chunks=3,
        )
        report1 = phase1.run()
        assert report1.ok and report1.reason == "max_chunks reached"
        assert report1.chunks_scored == 3

        phase2 = make_daemon(
            serve_trace,
            checkpoint_path=checkpoint,
            checkpoint_every=1,
            resume=True,
        )
        report2 = phase2.run()
        assert report2.ok and report2.reason == ""
        # counters are lifetime-of-service: the resumed daemon carries
        # the predecessor's tally forward
        assert report2.chunks_scored > report1.chunks_scored
        assert report2.packets_lost == 0

        first, second = phase1.collected(), phase2.collected()
        for name, value in reference.items():
            rejoined = np.concatenate(
                [np.asarray(first[name]), np.asarray(second[name])]
            )
            assert np.array_equal(rejoined, np.asarray(value)), name

    def test_interrupt_mid_chunk_resumes_byte_equal(
        self, serve_trace, tmp_path, monkeypatch
    ):
        reference = baseline_outputs(serve_trace)
        checkpoint = str(tmp_path / "checkpoint.jsonl")
        run_step = ExecutionEngine._run_step

        def interrupted(engine, index, call, env, *args, **kwargs):
            run_step(engine, index, call, env, *args, **kwargs)
            # Ctrl-C after chunk 4's Kitsune state advanced, before the
            # chunk finished: the shutdown checkpoint must not keep it
            if call.name == "KitsuneFeatures" and phase1.session.chunks == 4:
                raise KeyboardInterrupt

        phase1 = make_daemon(
            serve_trace, checkpoint_path=checkpoint, checkpoint_every=1
        )
        monkeypatch.setattr(ExecutionEngine, "_run_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            phase1.run()
        monkeypatch.undo()
        assert phase1._scored == 4

        phase2 = make_daemon(
            serve_trace,
            checkpoint_path=checkpoint,
            checkpoint_every=1,
            resume=True,
        )
        report2 = phase2.run()
        assert report2.ok and report2.packets_lost == 0

        first, second = phase1.collected(), phase2.collected()
        for name, value in reference.items():
            rejoined = np.concatenate(
                [np.asarray(first[name]), np.asarray(second[name])]
            )
            assert rejoined.tobytes() == np.asarray(value).tobytes(), name

    def test_resume_without_checkpoint_starts_fresh(
        self, serve_trace, tmp_path
    ):
        daemon = make_daemon(
            serve_trace,
            checkpoint_path=str(tmp_path / "missing.jsonl"),
            resume=True,
        )
        report = daemon.run()
        assert report.ok
        assert report.packets_ingested == len(serve_trace)

    def test_checkpoint_write_failure_degrades_not_dies(
        self, serve_trace, tmp_path
    ):
        plan = FaultPlan(rules=(FaultRule("checkpoint_write",
                                          fail_first=1),))
        daemon = make_daemon(
            serve_trace,
            checkpoint_path=str(tmp_path / "checkpoint.jsonl"),
            checkpoint_every=2,
        )
        with active(plan):
            report = daemon.run()
        assert report.ok
        assert report.packets_lost == 0
        errors = METRICS.counter(metric_names.SERVE_CHECKPOINT_ERRORS)
        assert errors.value == 1
        assert report.checkpoints_written > 0  # later writes succeeded
        assert all(daemon.verify_against_offline().values())

    def test_checkpoint_refuses_template_drift(self, serve_trace, tmp_path):
        checkpoint = str(tmp_path / "checkpoint.jsonl")
        phase1 = make_daemon(
            serve_trace,
            checkpoint_path=checkpoint,
            checkpoint_every=1,
            max_chunks=2,
        )
        assert phase1.run().ok

        drifted = ServeDaemon(
            serve_trace,
            config=ServeConfig(
                chunk_seconds=CHUNK_SECONDS,
                checkpoint_path=checkpoint,
                resume=True,
            ),
            template=[{"func": "Labels", "input": None, "output": "y"}],
            clock=ReplayClock(),
        )
        report = drifted.run()
        assert not report.ok
        assert "startup failed" in report.reason
        assert "snapshot" in report.reason

    @pytest.mark.parametrize("streams", [1, 0])
    def test_older_state_layout_is_refused_in_one_line(
        self, serve_trace, tmp_path, monkeypatch, streams
    ):
        checkpoint = tmp_path / "checkpoint.jsonl"
        assert make_daemon(
            serve_trace,
            checkpoint_path=str(checkpoint),
            checkpoint_every=1,
            max_chunks=2,
        ).run().ok
        record = ServeDaemon.load_checkpoint(checkpoint)
        snapshot = pickle.loads(base64.b64decode(record["snapshot"]))

        # the older layout: one IncStat per (tag, rate, key) and the
        # last arrival per source host
        class IncStat:
            __slots__ = ("lam", "w", "ls", "ss", "last_t")

        IncStat.__module__ = incstats.__name__
        IncStat.__qualname__ = "IncStat"
        monkeypatch.setattr(incstats, "IncStat", IncStat, raising=False)
        older = {}
        for index in range(streams):
            older[("src", 1.0, index)] = stream = IncStat()
            stream.lam, stream.w, stream.ls, stream.ss = 1.0, 1.0, 60.0, 3600.0
            stream.last_t = 0.0
        for state in snapshot.states.values():
            for name, value in state.items():
                if isinstance(value, KitsuneStreamState):
                    state[name] = old = object.__new__(KitsuneStreamState)
                    vars(old).update(
                        lambdas=value.lambdas, _streams=older,
                        _last_seen=dict.fromkeys(range(streams), 0.0),
                        _base=None, _entry_bytes=0,
                    )
        record["snapshot"] = base64.b64encode(
            pickle.dumps(snapshot)
        ).decode("ascii")
        with checkpoint.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        monkeypatch.delattr(incstats, "IncStat")

        report = make_daemon(
            serve_trace, checkpoint_path=str(checkpoint), resume=True
        ).run()
        assert not report.ok
        assert report.reason.startswith("startup failed: StateLayoutError: ")
        assert "older version" in report.reason
        assert "restart without --resume" in report.reason
        assert "\n" not in report.reason
        assert "Traceback" not in report.reason
