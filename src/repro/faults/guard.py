"""The two fault guards ``repro matrix`` and ``repro serve`` share.

* :func:`call_with_deadline` bounds one call's wall clock: the work
  runs on a daemon thread while the caller waits ``seconds``; on
  overrun the caller raises its own error type and the worker is
  abandoned, not stopped.  Python offers no safe preemption, so the
  deadline bounds *waiting*, not CPU -- the runner abandons an
  evaluation cell (:class:`~repro.core.errors.EvaluationTimeout`), the
  daemon a chunk's staging (:class:`~repro.serve.supervisor.StallError`).
* :func:`backoff_seconds` is the seeded exponential backoff between
  attempts.  Its jitter is a pure function of ``(seed, key, attempt)``,
  so a re-run -- or a virtual-time soak -- waits the exact same
  schedule.
"""

from __future__ import annotations

import hashlib
import threading


def call_with_deadline(fn, seconds: float | None, what: str, error: type):
    """Run ``fn`` with a wall-clock bound (no bound when ``seconds`` is falsy).

    With no bound this is a plain call on this thread.  With one, an
    overrun raises ``error(seconds, what)`` here; the abandoned worker
    runs on to the end of ``fn`` and its outcome is discarded.  An
    exception ``fn`` raises in time propagates unchanged.
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
        target=_target, daemon=True, name=f"deadline-{what}"
    )
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        raise error(seconds, what)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def backoff_seconds(base: float, seed: int, key: str, attempt: int) -> float:
    """``base * 2**(attempt - 1)`` scaled by a seeded jitter in [0.5, 1)."""
    digest = hashlib.sha256(f"{seed}|{key}|{attempt}".encode()).digest()
    jitter = 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / 2**64)
    return base * (2 ** (attempt - 1)) * jitter
