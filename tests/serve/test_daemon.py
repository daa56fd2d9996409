"""End-to-end behaviour of the serve daemon.

Every test runs the daemon on a virtual clock, which makes the whole
run -- pacing, backoff schedules, stall windows -- a deterministic
function of (trace, template, config, fault plan).  The load-bearing
assertions are byte-equality ones: whatever the daemon survives
(faults, reloads, crashes, drops), its outputs must equal an offline
``run_stream`` over the rows it actually served.
"""

import json

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule, active
from repro.obs import METRICS
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
