"""Stall detection: the heartbeat watchdog and the attempt deadline.

Two complementary guards keep a wedged daemon from wedging silently:

* :class:`Watchdog` -- a heartbeat ledger on the injected clock.  The
  control loop calls :meth:`Watchdog.beat` whenever it makes real
  progress (a batch ingested, a chunk scored or quarantined) and
  :meth:`Watchdog.poll` on every idle tick, which reports a stall once
  ``stall_seconds`` pass with no beat.  Because it reads the injected
  clock, a virtual-time soak can step straight over the stall window
  and test the restart path deterministically.
* :class:`StallError` -- what the shared
  :func:`~repro.faults.guard.call_with_deadline` raises when one *hung
  call* (a scoring attempt stuck inside numpy) overruns
  ``chunk_deadline``.  The deadline needs real threads and real time;
  the virtual-time path relies on the watchdog instead.
"""

from __future__ import annotations

import threading

from repro.obs import METRICS, get_tracer
from repro.obs import metrics as metric_names
from repro.serve.clock import Clock


class StallError(RuntimeError):
    """A guarded call overran its deadline and was abandoned."""

    def __init__(self, seconds: float, what: str) -> None:
        super().__init__(
            f"{what} exceeded its {seconds:g}s deadline and was abandoned"
        )
        self.seconds = seconds
        self.what = what


class Watchdog:
    """Detects a control loop that has stopped making progress.

    The watchdog never restarts anything itself -- it *reports*, and
    the daemon owns the recovery (drop the uncommitted attempt and
    continue).  :meth:`trip` records that a restart happened so the
    count is visible on ``serve_watchdog_restarts_total`` and in the
    status report.
    """

    def __init__(self, clock: Clock, stall_seconds: float) -> None:
        if stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")
        self.clock = clock
        self.stall_seconds = float(stall_seconds)
        self._lock = threading.Lock()
        self._last_beat = clock.now()
        self.restarts = 0

    def beat(self) -> None:
        """Record progress; resets the stall window."""
        with self._lock:
            self._last_beat = self.clock.now()

    def idle_seconds(self) -> float:
        with self._lock:
            return self.clock.now() - self._last_beat

    def poll(self) -> bool:
        """True when the stall window has elapsed without a beat."""
        return self.idle_seconds() > self.stall_seconds

    def trip(self, **detail) -> int:
        """Record one stall-triggered restart (and re-arm)."""
        with self._lock:
            self.restarts += 1
            self._last_beat = self.clock.now()
            count = self.restarts
        METRICS.counter(
            metric_names.SERVE_WATCHDOG_RESTARTS,
            "scoring-loop restarts triggered by the stall watchdog",
        ).inc()
        get_tracer().event(
            "serve.watchdog_restart", restarts=count, **detail
        )
        return count
