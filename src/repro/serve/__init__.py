"""``repro serve``: the fault-tolerant online detection daemon.

The paper's deployment target is an IoT gateway scoring traffic at a
chokepoint; this package is that deployment shape with the robustness
machinery a long-running process actually needs.  A single-threaded,
clock-driven control loop replays a trace at a controlled rate,
assembles time-window chunks through a bounded backpressure queue, and
scores them online via the engine's proven-streamable
:class:`~repro.core.engine.StreamSession` -- with stage-then-commit
atomic scoring, seeded retries, quarantine-and-continue degradation,
a stall watchdog, SIGHUP graceful reload with analyzer-gated state
handoff, and checkpoint-based crash recovery.

* :mod:`repro.serve.clock` -- the injectable time source
  (:class:`MonotonicClock` live, :class:`ReplayClock` virtual: soak
  tests run minutes of pacing/backoff/stall timeline in milliseconds).
* :mod:`repro.serve.source` -- paced replay (:class:`ReplaySource`,
  the ``ingest`` fault site) and window assembly
  (:class:`ChunkAssembler`).
* :mod:`repro.serve.queue` -- :class:`BoundedChunkQueue` with explicit
  ``block`` / ``drop-oldest`` backpressure policies.
* :mod:`repro.serve.supervisor` -- the heartbeat :class:`Watchdog` and
  :class:`StallError`, which the shared per-attempt deadline raises.
* :mod:`repro.serve.health` -- the atomic :class:`ServeStatus` file
  behind ``repro serve --status``.
* :mod:`repro.serve.daemon` -- :class:`ServeDaemon`, the loop itself.

See ``docs/OPERATIONS.md`` (serving section) for flags and semantics.
"""

from repro.serve.clock import Clock, MonotonicClock, ReplayClock
from repro.serve.daemon import (
    DEFAULT_TEMPLATE,
    ServeConfig,
    ServeDaemon,
    ServeReport,
)
from repro.serve.health import ServeStatus
from repro.serve.queue import POLICIES, BoundedChunkQueue
from repro.serve.source import Chunk, ChunkAssembler, ReplaySource
from repro.serve.supervisor import StallError, Watchdog

__all__ = [
    "Clock",
    "MonotonicClock",
    "ReplayClock",
    "DEFAULT_TEMPLATE",
    "ServeConfig",
    "ServeDaemon",
    "ServeReport",
    "ServeStatus",
    "POLICIES",
    "BoundedChunkQueue",
    "Chunk",
    "ChunkAssembler",
    "ReplaySource",
    "StallError",
    "Watchdog",
]
