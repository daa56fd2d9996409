"""Stall detection: the heartbeat watchdog and the attempt deadline.

Two complementary guards keep a wedged daemon from wedging silently:

* :class:`Watchdog` -- a heartbeat ledger on the injected clock.  The
  control loop calls :meth:`Watchdog.beat` whenever it makes real
  progress (a batch ingested, a chunk scored or quarantined); anyone
  -- the loop itself each tick, or an optional background thread in
  live mode -- calls :meth:`Watchdog.poll`, which reports a stall once
  ``stall_seconds`` pass with no beat.  Because it reads the injected
  clock, a virtual-time soak can step straight over the stall window
  and test the restart path deterministically.
* :func:`call_with_deadline` -- bounds one *hung call* (a scoring
  attempt stuck inside numpy) the way the benchmark runner bounds an
  evaluation cell: run it on a daemon thread, wait ``seconds``, and
  abandon it with :class:`StallError` if it overruns.  Python offers
  no safe preemption, so the deadline bounds waiting, not CPU.  This
  guard needs real threads and real time; the virtual-time path relies
  on the watchdog instead.
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


def call_with_deadline(fn, seconds: float | None, what: str):
    """Run ``fn`` with a wall-clock bound (no bound when ``seconds`` is falsy).

    An overrun worker is abandoned, not stopped: it runs on to the end
    of ``fn``.  The daemon only ever passes a stage of the chunk, so an
    abandoned worker writes only into that attempt's overlay, which
    nothing commits once :class:`StallError` is raised.
    """
    if not seconds:
        return fn()
    outcome: dict = {}

    def _target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(
        target=_target, daemon=True, name=f"serve-{what}"
    )
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        raise StallError(seconds, what)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


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

    # ------------------------------------------------------------------
    # optional live-mode polling thread
    # ------------------------------------------------------------------

    def start_thread(self, on_stall, *, interval: float = 1.0):
        """Poll from a background thread (live mode only).

        ``on_stall()`` runs on the watchdog thread whenever a stall is
        observed; the returned object has a ``stop()`` method.  The
        deterministic single-threaded loop polls inline instead -- this
        exists for real deployments where the loop itself might be the
        thing that is stuck.
        """
        stop_event = threading.Event()

        def _run() -> None:
            while not stop_event.wait(interval):
                if self.poll():
                    on_stall()

        worker = threading.Thread(
            target=_run, daemon=True, name="serve-watchdog"
        )
        worker.start()

        class _Handle:
            @staticmethod
            def stop() -> None:
                stop_event.set()
                worker.join(timeout=interval * 2)

        return _Handle()
