"""Stall detection: the heartbeat watchdog and the attempt deadline.

The deadline is the guard ``repro matrix`` shares; here it runs as the
daemon calls it, raising :class:`StallError`.
"""

import threading

import pytest

from repro.faults.guard import call_with_deadline
from repro.obs import METRICS
from repro.obs import metrics as metric_names
from repro.serve import ReplayClock, StallError, Watchdog


class TestWatchdog:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            Watchdog(ReplayClock(), 0.0)

    def test_quiet_until_the_window_elapses(self):
        clock = ReplayClock()
        watchdog = Watchdog(clock, stall_seconds=5.0)
        assert not watchdog.poll()
        clock.advance(5.0)
        assert not watchdog.poll()  # exactly at the boundary: not yet
        clock.advance(0.1)
        assert watchdog.poll()
        assert watchdog.idle_seconds() == pytest.approx(5.1)

    def test_beat_rearms(self):
        clock = ReplayClock()
        watchdog = Watchdog(clock, stall_seconds=5.0)
        clock.advance(4.9)
        watchdog.beat()
        clock.advance(4.9)
        assert not watchdog.poll()

    def test_trip_counts_and_rearms(self):
        clock = ReplayClock()
        watchdog = Watchdog(clock, stall_seconds=5.0)
        clock.advance(6.0)
        assert watchdog.poll()
        assert watchdog.trip() == 1
        assert not watchdog.poll()  # re-armed by the trip
        assert watchdog.restarts == 1
        counter = METRICS.counter(metric_names.SERVE_WATCHDOG_RESTARTS)
        assert counter.value == 1


class TestCallWithDeadline:
    def test_stall_error_carries_the_budget(self):
        error = StallError(2.5, "score_chunk[3]")
        assert error.seconds == 2.5
        assert "score_chunk[3]" in str(error)
        assert "2.5s" in str(error)

    def test_no_deadline_calls_inline(self):
        for seconds in (None, 0.0):
            on = call_with_deadline(
                threading.current_thread, seconds, "x", StallError
            )
            assert on is threading.current_thread()

    def test_fast_call_returns_its_value(self):
        assert call_with_deadline(lambda: "done", 5.0, "x", StallError) == (
            "done"
        )

    def test_errors_propagate(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deadline(boom, 5.0, "x", StallError)

    def test_overrun_raises_stall_error(self):
        release = threading.Event()
        try:
            with pytest.raises(StallError, match="slow-thing") as caught:
                call_with_deadline(
                    release.wait, 0.05, "slow-thing", StallError
                )
        finally:
            release.set()
        assert caught.value.seconds == 0.05
